//! Differential test: the word-at-a-time lexer against the byte loop it
//! replaced, piece for piece, line numbers included, on seeded sources.
//!
//! The sources mix CRLF and LF endings, a missing final newline, strings
//! with escaped quotes, `'/'` char literals, `/*`, `//` and `#pragma ddm`
//! inside strings, block comments spanning pragmas, multibyte UTF-8 beside
//! `/` and `"`, and short lines with a special byte at offsets 0, 7, 8 and
//! 15 (either side of the eight-byte word boundary and in the tail).
//!
//! Two rules changed on purpose: comments on a directive line are removed
//! before the directive is read (a `/*` left open there is an error), and
//! blanks may separate `#` from `pragma`. A source that exercises them is
//! checked against the reference run on the same source without them.

use tflux_core::{cases, SplitMix64};
use tflux_ddmcpp::{lex, ErrorKind, Piece};

/// The byte-loop lexer this crate shipped before the word-at-a-time scan.
mod reference {
    use tflux_ddmcpp::Piece;

    pub fn lex(source: &str) -> Vec<Piece> {
        let mut pieces = Vec::new();
        let mut code = String::new();
        let mut code_start = 1usize;
        let mut in_block_comment = false;

        for (i, raw_line) in source.lines().enumerate() {
            let lineno = i + 1;
            let is_pragma = !in_block_comment && is_ddm_pragma(raw_line);
            if is_pragma {
                if !code.trim().is_empty() {
                    pieces.push(Piece::Code {
                        line: code_start,
                        text: std::mem::take(&mut code),
                    });
                } else {
                    code.clear();
                }
                code_start = lineno + 1;
                let after = raw_line.trim_start();
                let after = after.strip_prefix("#pragma").unwrap().trim_start();
                let after = after.strip_prefix("ddm").unwrap().trim();
                pieces.push(Piece::Pragma {
                    line: lineno,
                    text: after.to_string(),
                });
            } else {
                if code.is_empty() {
                    code_start = lineno;
                }
                code.push_str(raw_line);
                code.push('\n');
                in_block_comment = track_block_comment(raw_line, in_block_comment);
            }
        }
        if !code.trim().is_empty() {
            pieces.push(Piece::Code {
                line: code_start,
                text: code,
            });
        }
        pieces
    }

    fn is_ddm_pragma(line: &str) -> bool {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("#pragma") {
            let rest = rest.trim_start();
            rest == "ddm" || rest.starts_with("ddm ") || rest.starts_with("ddm\t")
        } else {
            false
        }
    }

    fn track_block_comment(line: &str, mut inside: bool) -> bool {
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_str: Option<u8> = None;
        while i < bytes.len() {
            if inside {
                if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    inside = false;
                    i += 2;
                    continue;
                }
                i += 1;
                continue;
            }
            match in_str {
                Some(q) => {
                    if bytes[i] == b'\\' {
                        i += 2;
                        continue;
                    }
                    if bytes[i] == q {
                        in_str = None;
                    }
                    i += 1;
                }
                None => match bytes[i] {
                    b'"' | b'\'' => {
                        in_str = Some(bytes[i]);
                        i += 1;
                    }
                    b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => return inside,
                    b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                        inside = true;
                        i += 2;
                    }
                    _ => i += 1,
                },
            }
        }
        inside
    }
}

/// Code fragments; none starts a line with `#`, so only [`pragma`] lines
/// are directives.
const TOKENS: &[&str] = &[
    "x",
    "let y = 1;",
    " ",
    "\t",
    "/",
    "//",
    "/*",
    "*/",
    "*",
    "\"",
    "'",
    "\\",
    "\r",
    "\"a\\\"b\"",
    "'\\''",
    "'/'",
    "'\"'",
    "\"/*\"",
    "\"//\"",
    "\"#pragma ddm block 9\"",
    "; #pragma ddm endblock",
    "é/",
    "/é",
    "\"日本\"",
    "→\"",
    "🦀/*",
    "*/🦀",
];

const SPECIALS: &[&str] = &["/", "\"", "'", "//", "/*", "*/", "\\\"", "é\"", "/→"];

const PAYLOADS: &[&str] = &[
    "",
    " block 3",
    " endblock",
    " thread 12 depends(3:onetoone) cost(40)",
    "\tfor thread 1 range(0, 8)",
    "  endthread  ",
];

/// A line of length 0–17 with a special sequence at byte 0, 7, 8 or 15.
fn probe(rng: &mut SplitMix64) -> String {
    let len = rng.range(0usize..18);
    let mut s: String = (0..len).map(|_| *rng.pick(&['a', 'b', ' ', ';'])).collect();
    let at = *rng.pick(&[0usize, 7, 8, 15]);
    if at <= len {
        s.insert_str(at, rng.pick::<&str>(SPECIALS));
    }
    s
}

fn code(rng: &mut SplitMix64) -> String {
    let mut s = String::from(*rng.pick(&["", "x", "  "]));
    for _ in 0..rng.range(0..6) {
        s.push_str(rng.pick::<&str>(TOKENS));
    }
    s
}

/// A directive line: `(indent, payload)`, rendered by [`render`].
fn pragma(rng: &mut SplitMix64) -> (&'static str, &'static str) {
    (*rng.pick(&["", "  ", "\t"]), *rng.pick(PAYLOADS))
}

/// How a directive line is dressed up with the two changed rules.
#[derive(Clone, Copy, PartialEq)]
enum Dress {
    Plain,
    SpacedHash,
    Trailing(&'static str),
    /// One blank inside the payload becomes a comment.
    Inner,
    /// A `/*` left open at the end of the line.
    Open,
}

fn render(indent: &str, payload: &str, dress: Dress) -> String {
    let hash = if dress == Dress::SpacedHash {
        "#\t pragma"
    } else {
        "#pragma"
    };
    let mut s = format!("{indent}{hash} ddm{payload}");
    match dress {
        Dress::Trailing(t) => s.push_str(t),
        Dress::Open => s.push_str(" /* open \" // "),
        Dress::Inner => {
            // a blank after the payload's first word (the blank after `ddm`
            // is what makes the line a directive)
            let word = s.len() - payload.trim_start().len();
            if let Some(j) = s[word..].find(' ') {
                s.replace_range(word + j..word + j + 1, "/* m */");
            }
        }
        Dress::Plain | Dress::SpacedHash => {}
    }
    s
}

enum Line {
    Code(String),
    Pragma(&'static str, &'static str),
}

fn join(lines: &[String], rng: &mut SplitMix64) -> String {
    let crlf = rng.range(0u32..3); // 0: LF, 1: CRLF, 2: mixed
    let final_newline = rng.chance(1, 2);
    let mut s = String::new();
    for (i, l) in lines.iter().enumerate() {
        s.push_str(l);
        if i + 1 < lines.len() || final_newline {
            let cr = crlf == 1 || (crlf == 2 && rng.chance(1, 2));
            s.push_str(if cr { "\r\n" } else { "\n" });
        }
    }
    s
}

#[test]
fn word_scan_matches_the_byte_loop() {
    cases(4000, |rng| {
        let lines: Vec<Line> = (0..rng.range(0..24))
            .map(|_| match rng.below(4) {
                0 => {
                    let (indent, payload) = pragma(rng);
                    Line::Pragma(indent, payload)
                }
                1 => Line::Code(probe(rng)),
                _ => Line::Code(code(rng)),
            })
            .collect();
        // one draw of line endings, used for every rendering of the source
        let endings = rng.next_u64();
        let text = |dress: &dyn Fn(usize) -> Dress| -> String {
            let rendered: Vec<String> = lines
                .iter()
                .enumerate()
                .map(|(i, l)| match l {
                    Line::Code(c) => c.clone(),
                    Line::Pragma(indent, payload) => render(indent, payload, dress(i)),
                })
                .collect();
            join(&rendered, &mut SplitMix64(endings))
        };
        let plain = text(&|_| Dress::Plain);
        let want = reference::lex(&plain);
        assert_eq!(lex(&plain), want, "source {plain:?}");

        // dress the directive lines; a directive line inside a comment may
        // only get the spaced hash, which leaves it code
        let directive = |i: usize| {
            want.iter()
                .any(|p| matches!(p, Piece::Pragma { line, .. } if *line == i + 1))
        };
        let dresses: Vec<Dress> = (0..lines.len())
            .map(|i| match (directive(i), rng.below(8)) {
                (false, 0..=3) => Dress::SpacedHash,
                (false, _) => Dress::Plain,
                (true, 0) => Dress::Open,
                (true, 1 | 2) => Dress::SpacedHash,
                (true, 3) => Dress::Inner,
                (true, 4) => Dress::Trailing(" // note /* \""),
                (true, 5) => Dress::Trailing("\t/* n */ /* 'm' */"),
                (true, _) => Dress::Plain,
            })
            .collect();
        let dressed = text(&|i| dresses[i]);
        let expected_src = text(&|i| match directive(i) {
            true => Dress::Plain,
            false => dresses[i],
        });
        let mut expected = reference::lex(&expected_src);
        let got = lex(&dressed);
        match (0..lines.len()).find(|&i| directive(i) && dresses[i] == Dress::Open) {
            None => assert_eq!(got, expected, "source {dressed:?}"),
            Some(i) => {
                let at = expected
                    .iter()
                    .position(|p| matches!(p, Piece::Pragma { line, .. } if *line == i + 1))
                    .expect("the open-comment line is a directive");
                expected.truncate(at);
                let (last, before) = got.split_last().expect("an error piece");
                assert_eq!(before, &expected[..], "source {dressed:?}");
                match last {
                    Piece::Error(e) => {
                        assert_eq!(e.line, i + 1, "source {dressed:?}");
                        assert!(matches!(e.kind, ErrorKind::BadDirective(_)), "{e:?}");
                    }
                    other => panic!("expected an error piece, got {other:?}: {dressed:?}"),
                }
            }
        }
    });
}
