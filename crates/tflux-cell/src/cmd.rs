//! The CommandBuffer wire format.
//!
//! §4.3: each TSU owns a 128-byte CommandBuffer in main memory "which holds
//! the commands sent by the kernels executing on the corresponding SPE",
//! and "the addresses of these two buffers are the only information that a
//! Kernel needs, in order to communicate with its TSU". This module gives
//! that buffer a concrete encoding: fixed 16-byte records in a 128-byte
//! ring, so a buffer holds at most 8 in-flight commands — which is also the
//! back-pressure limit the machine model enforces.

use tflux_core::ids::{Context, Epoch, Instance, ThreadId};

/// Size of one CommandBuffer in bytes (fixed by the paper).
pub const COMMAND_BUFFER_BYTES: usize = 128;
/// Size of one encoded command record.
pub const COMMAND_BYTES: usize = 16;
/// Maximum commands resident in one buffer.
pub const COMMAND_CAPACITY: usize = COMMAND_BUFFER_BYTES / COMMAND_BYTES;

/// A command a kernel sends to its TSU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// The given instance of the given epoch finished executing. The
    /// epoch token travels on the wire so the TSU Emulator can reject a
    /// command that arrives after its context slot re-armed for the next
    /// pass: the record's fourth word carries the low 32 bits of the
    /// epoch, which covers the full 30-bit tag space the SyncMemory
    /// state word validates against.
    Complete(Instance, Epoch),
    /// The kernel is idle and asks for work (used at startup).
    RequestWork,
    /// The kernel is shutting down (last block's outlet seen).
    Shutdown,
}

impl Command {
    /// Encode into exactly [`COMMAND_BYTES`] bytes: four big-endian words.
    pub fn encode(&self) -> [u8; COMMAND_BYTES] {
        let words: [u32; 4] = match self {
            Command::Complete(i, ep) => [1, i.thread.0, i.context.0, ep.0 as u32],
            Command::RequestWork => [2, 0, 0, 0],
            Command::Shutdown => [3, 0, 0, 0],
        };
        let mut b = [0u8; COMMAND_BYTES];
        for (dst, w) in b.chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_be_bytes());
        }
        b
    }

    /// Decode the record at the start of `bytes`; `None` if fewer than
    /// [`COMMAND_BYTES`] bytes are given or the tag is unknown.
    pub fn decode(bytes: &[u8]) -> Option<Command> {
        let record = bytes.get(..COMMAND_BYTES)?;
        let word = |i: usize| {
            let w = &record[4 * i..4 * i + 4];
            u32::from_be_bytes([w[0], w[1], w[2], w[3]])
        };
        match word(0) {
            1 => Some(Command::Complete(
                Instance::new(ThreadId(word(1)), Context(word(2))),
                Epoch(word(3) as u64),
            )),
            2 => Some(Command::RequestWork),
            3 => Some(Command::Shutdown),
            _ => None,
        }
    }
}

/// A 128-byte command ring, as allocated (one per TSU) in main memory.
#[derive(Debug, Default)]
pub struct CommandBuffer {
    records: Vec<Command>,
}

impl CommandBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        CommandBuffer {
            records: Vec::with_capacity(COMMAND_CAPACITY),
        }
    }

    /// Try to append a command; fails (back-pressure) when the 128-byte
    /// ring is full — the kernel must stall until the emulator drains.
    pub fn push(&mut self, cmd: Command) -> Result<(), Command> {
        if self.records.len() >= COMMAND_CAPACITY {
            return Err(cmd);
        }
        self.records.push(cmd);
        Ok(())
    }

    /// Drain all commands in arrival order.
    pub fn drain(&mut self) -> Vec<Command> {
        std::mem::take(&mut self.records)
    }

    /// Commands currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the buffer is at its 128-byte capacity.
    pub fn is_full(&self) -> bool {
        self.records.len() >= COMMAND_CAPACITY
    }

    /// Serialize the whole buffer as it would sit in main memory.
    pub fn as_memory(&self) -> [u8; COMMAND_BUFFER_BYTES] {
        let mut b = [0u8; COMMAND_BUFFER_BYTES];
        for (slot, r) in b.chunks_exact_mut(COMMAND_BYTES).zip(&self.records) {
            slot.copy_from_slice(&r.encode());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let cmds = [
            Command::Complete(Instance::new(ThreadId(7), Context(123)), Epoch(0)),
            Command::Complete(Instance::new(ThreadId(2), Context(9)), Epoch(41)),
            Command::RequestWork,
            Command::Shutdown,
        ];
        for c in cmds {
            assert_eq!(Command::decode(&c.encode()), Some(c));
        }
        // the wire layout itself: tag, thread, context, epoch, big-endian
        assert_eq!(
            cmds[1].encode(),
            [0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 41]
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Command::decode(&[0u8; 16]), None);
        assert_eq!(Command::decode(&[1u8; 3]), None);
    }

    #[test]
    fn buffer_capacity_is_eight() {
        let mut b = CommandBuffer::new();
        for i in 0..8 {
            b.push(Command::Complete(
                Instance::new(ThreadId(i), Context(0)),
                Epoch(0),
            ))
            .unwrap();
        }
        assert!(b.is_full());
        assert!(b.push(Command::RequestWork).is_err());
        assert_eq!(b.drain().len(), 8);
        assert!(b.is_empty());
        b.push(Command::RequestWork).unwrap();
    }

    #[test]
    fn memory_image_is_exactly_128_bytes() {
        let mut b = CommandBuffer::new();
        b.push(Command::RequestWork).unwrap();
        let img = b.as_memory();
        assert_eq!(img.len(), COMMAND_BUFFER_BYTES);
        // first record decodes back
        assert_eq!(
            Command::decode(&img[..COMMAND_BYTES]),
            Some(Command::RequestWork)
        );
        // rest is zero padding
        assert!(img[COMMAND_BYTES..].iter().all(|&x| x == 0));
    }
}
