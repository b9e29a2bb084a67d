//! Source-level lexing: split a C-like source file into DDM pragma lines
//! and pass-through code segments.
//!
//! The lexer is comment- and string-aware so that a `#pragma ddm` inside a
//! block comment or a string literal is *not* treated as a directive —
//! exactly the behaviour a C preprocessor front-end must have. As in C,
//! comments go (translation phase 3) before directives are read (phase 4):
//! `#pragma ddm block 1 // note` is `block 1`, and a `/*` left open on a
//! directive line is an error. Blanks may separate `#` from `pragma`.
//! A code line is searched for `/`, `"` and `'` eight bytes at a time, and
//! a code segment is sliced from the source and copied once.

use crate::error::{ErrorKind, PreprocessError};

/// One element of the source file, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// A `#pragma ddm …` line: the directive text after `ddm`, comments
    /// removed, trimmed.
    Pragma {
        /// 1-based source line.
        line: usize,
        /// Directive text (e.g. `thread 3 kernel 1`).
        text: String,
    },
    /// Verbatim code (may span many lines, newlines preserved).
    Code {
        /// 1-based line the segment starts at.
        line: usize,
        /// The raw text.
        text: String,
    },
    /// A directive line that leaves a `/*` comment open; lexing stops there.
    Error(PreprocessError),
}

/// Split `source` into pragma directives and code segments.
pub fn lex(source: &str) -> Vec<Piece> {
    let mut pieces = Vec::new();
    // the open code segment's first byte and line
    let (mut seg, mut seg_line, mut pos, mut in_block_comment) = (0, 1, 0, false);
    for (i, raw) in source.split_inclusive('\n').enumerate() {
        let (lineno, end) = (i + 1, pos + raw.len());
        let line = raw
            .strip_suffix('\n')
            .map_or(raw, |l| l.strip_suffix('\r').unwrap_or(l));
        if let Some(text) = pragma_text(line).filter(|_| !in_block_comment) {
            push_code(&mut pieces, &source[seg..pos], seg_line);
            match strip_comments(text, lineno) {
                Ok(text) => pieces.push(Piece::Pragma { line: lineno, text }),
                Err(e) => {
                    pieces.push(Piece::Error(e));
                    return pieces;
                }
            }
            (seg, seg_line) = (end, lineno + 1);
        } else {
            in_block_comment = track_block_comment(line, in_block_comment);
        }
        pos = end;
    }
    push_code(&mut pieces, &source[seg..], seg_line);
    pieces
}

/// Push the code segment `seg`, which starts at `line`, unless it is blank.
/// Its lines end in `\n` whatever the source used: only a segment with a
/// `\r` or without a final newline is rebuilt line by line.
fn push_code(pieces: &mut Vec<Piece>, seg: &str, line: usize) {
    if seg.trim().is_empty() {
        return;
    }
    let text = if seg.ends_with('\n') && !seg.contains('\r') {
        seg.to_string()
    } else {
        seg.lines().flat_map(|l| [l, "\n"]).collect()
    };
    pieces.push(Piece::Code { line, text });
}

/// The text after `ddm` if `line` is a `#pragma ddm` directive.
fn pragma_text(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix('#')?.trim_start();
    let rest = rest.strip_prefix("pragma")?.trim_start();
    let rest = rest.strip_prefix("ddm")?;
    (rest.is_empty() || rest.starts_with([' ', '\t'])).then_some(rest)
}

/// Directive text with each comment replaced by a blank, then trimmed; a
/// `/*` it leaves open is an error at `line`.
fn strip_comments(text: &str, line: usize) -> Result<String, PreprocessError> {
    let (mut out, mut i) = (String::new(), 0);
    while let Some((start, end)) = next_comment(text, i) {
        out.push_str(&text[i..start]);
        out.push(' ');
        let why = || ErrorKind::BadDirective("`/*` is not closed on its directive line".into());
        i = end.ok_or_else(|| PreprocessError::at(line, why()))?;
    }
    out.push_str(&text[i..]);
    Ok(out.trim().to_string())
}

/// Track whether we are inside a `/* … */` comment after this line,
/// respecting line comments and string literals.
fn track_block_comment(line: &str, inside: bool) -> bool {
    // the byte after the comment being walked; `None` while it is open
    let mut end = if inside {
        line.find("*/").map(|j| j + 2)
    } else {
        Some(0)
    };
    while let Some(i) = end {
        let Some((_, next_end)) = next_comment(line, i) else {
            return false;
        };
        end = next_end;
    }
    true
}

/// The first comment that starts at or after byte `i` of `line` outside a
/// string literal: its first byte, and the byte after it (`None` if a
/// `/*` stays open). A `//` comment runs to the end of the line.
fn next_comment(line: &str, mut i: usize) -> Option<(usize, Option<usize>)> {
    let b = line.as_bytes();
    loop {
        i = next_special(b, i)?;
        match b[i] {
            b'/' => match b.get(i + 1) {
                Some(b'/') => return Some((i, Some(b.len()))),
                Some(b'*') => return Some((i, line[i + 2..].find("*/").map(|j| i + j + 4))),
                _ => i += 1,
            },
            quote => {
                i += 1;
                while i < b.len() && b[i] != quote {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
        }
    }
}

/// The first `/`, `"` or `'` at or after `i`, tested eight bytes at a time:
/// a byte of `w ^ splat(c)` is zero exactly where `w` holds `c`, and the
/// lowest flagged byte of the zero-byte test is always a true zero.
fn next_special(b: &[u8], i: usize) -> Option<usize> {
    const fn splat(c: u8) -> u64 {
        u64::from_le_bytes([c; 8])
    }
    let zero = |x: u64| x.wrapping_sub(splat(1)) & !x & splat(0x80);
    let rest = b.get(i..)?;
    let mut words = rest.chunks_exact(8);
    for (k, w) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(w.try_into().expect("eight bytes"));
        let hit = zero(w ^ splat(b'/')) | zero(w ^ splat(b'"')) | zero(w ^ splat(b'\''));
        if hit != 0 {
            return Some(i + 8 * k + hit.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|c| matches!(c, b'/' | b'"' | b'\''))?;
    Some(i + rest.len() - tail.len() + at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_pragmas_and_code() {
        let src = "int x;\n#pragma ddm startprogram\ny += 1;\n#pragma ddm endprogram\n";
        let p = lex(src);
        assert_eq!(p.len(), 4);
        assert_eq!(
            p[1],
            Piece::Pragma {
                line: 2,
                text: "startprogram".into()
            }
        );
        match &p[2] {
            Piece::Code { line, text } => {
                assert_eq!(*line, 3);
                assert_eq!(text, "y += 1;\n");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pragma_inside_block_comment_ignored() {
        let src = "/*\n#pragma ddm thread 1\n*/\ncode();\n";
        let p = lex(src);
        assert!(p.iter().all(|x| matches!(x, Piece::Code { .. })));
    }

    #[test]
    fn pragma_after_closed_comment_detected() {
        let src = "/* c */\n#pragma ddm block 1\n";
        let p = lex(src);
        assert!(matches!(&p[1], Piece::Pragma { text, .. } if text == "block 1"));
    }

    #[test]
    fn line_comment_does_not_open_block() {
        let src = "// /*\n#pragma ddm block 1\n";
        let p = lex(src);
        assert!(p.iter().any(|x| matches!(x, Piece::Pragma { .. })));
    }

    #[test]
    fn string_containing_comment_opener_is_ignored() {
        let src = "char *s = \"/*\";\n#pragma ddm block 1\n";
        let p = lex(src);
        assert!(p.iter().any(|x| matches!(x, Piece::Pragma { .. })));
    }

    #[test]
    fn non_ddm_pragma_is_code() {
        let src = "#pragma once\n#pragma ddmx foo\n";
        let p = lex(src);
        assert!(p.iter().all(|x| matches!(x, Piece::Code { .. })));
    }

    #[test]
    fn indented_pragma_detected() {
        let src = "    #pragma ddm endthread\n";
        let p = lex(src);
        assert!(matches!(&p[0], Piece::Pragma { text, .. } if text == "endthread"));
    }

    #[test]
    fn blank_code_segments_are_dropped() {
        let src = "#pragma ddm startprogram\n\n\n#pragma ddm endprogram\n";
        let p = lex(src);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn escaped_quote_in_string() {
        let src = "char *s = \"a\\\"/*\";\n#pragma ddm block 2\n";
        let p = lex(src);
        assert!(p.iter().any(|x| matches!(x, Piece::Pragma { .. })));
    }

    #[test]
    fn comments_on_a_directive_line_are_stripped() {
        for src in [
            "#pragma ddm block 1 // note\n",
            "#pragma ddm block 1 /* n */\n",
            "#pragma ddm block 1 /* n */ // m /*\n",
            "#pragma ddm block/* n */1\n",
        ] {
            assert_eq!(
                lex(src),
                vec![Piece::Pragma {
                    line: 1,
                    text: "block 1".into()
                }],
                "{src:?}"
            );
        }
    }

    #[test]
    fn open_comment_on_a_directive_line_is_an_error() {
        let src = "int x;\n#pragma ddm block 1 /* open\n#pragma ddm endblock\n*/\n";
        let p = lex(src);
        assert_eq!(p.len(), 2, "{p:?}");
        match &p[1] {
            Piece::Error(e) => {
                assert_eq!(e.line, 2);
                assert!(matches!(e.kind, ErrorKind::BadDirective(_)), "{e:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blanks_may_separate_hash_and_pragma() {
        let p = lex("# pragma ddm block 1\n  #\t pragma ddm endblock\n#pragmaddm\n");
        assert!(matches!(&p[0], Piece::Pragma { line: 1, text } if text == "block 1"));
        assert!(matches!(&p[1], Piece::Pragma { line: 2, text } if text == "endblock"));
    }

    #[test]
    fn crlf_lines_keep_their_numbers() {
        let p = lex("a\r\n#pragma ddm block 1\r\nb\r\nc");
        assert_eq!(
            p,
            vec![
                Piece::Code {
                    line: 1,
                    text: "a\n".into()
                },
                Piece::Pragma {
                    line: 2,
                    text: "block 1".into()
                },
                Piece::Code {
                    line: 3,
                    text: "b\nc\n".into()
                },
            ]
        );
    }
}
