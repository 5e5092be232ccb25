//! Text serialization of traces.
//!
//! A simple line-oriented format so that (a) generated traces can be saved
//! and inspected, and (b) real traces can be converted into the model with
//! a one-line-per-event converter. Format:
//!
//! ```text
//! # farmer-trace v1
//! family HP
//! users 236
//! hosts 32
//! file <id> <dev> <size> <ro:0|1> <path|->
//! ...
//! ev <ts_us> <op> <file> <uid> <pid> <host> <app> <bytes>
//! ...
//! ```
//!
//! `path` is `-` for traces without path information (INS/RES style).
//! Event `seq` is implicit in line order.
//!
//! Parsing is strict and total: every malformed input — truncated
//! records, unknown tags, non-numeric fields, trailing garbage — returns
//! a [`ParseError`] carrying the offending 1-based line number. The
//! parser never panics on untrusted input.

use std::fmt::Write as _;

use crate::event::{Op, TraceEvent};
use crate::ids::{DevId, FileId, HostId, ProcId, UserId};
use crate::trace::{FileMeta, Trace, TraceFamily};

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serialize a trace to the text format.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 40 + trace.files.len() * 40);
    out.push_str("# farmer-trace v1\n");
    let _ = writeln!(out, "family {}", trace.family.name());
    let _ = writeln!(out, "users {}", trace.num_users);
    let _ = writeln!(out, "hosts {}", trace.num_hosts);
    for (id, f) in trace.files.iter().enumerate() {
        let path = f
            .path
            .as_ref()
            .map(|p| trace.paths.render(p))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "file {id} {} {} {} {path}",
            f.dev.raw(),
            f.size,
            u8::from(f.read_only),
        );
    }
    for e in &trace.events {
        let _ = writeln!(
            out,
            "ev {} {} {} {} {} {} {} {}",
            e.timestamp_us,
            e.op.token(),
            e.file.raw(),
            e.uid.raw(),
            e.pid.raw(),
            e.host.raw(),
            e.app,
            e.bytes,
        );
    }
    out
}

/// Parse the text format back into a [`Trace`].
pub fn from_text(text: &str) -> Result<Trace, ParseError> {
    let err = |line: usize, message: &str| ParseError {
        line,
        message: message.to_string(),
    };
    let mut family: Option<TraceFamily> = None;
    let mut trace = Trace::empty(TraceFamily::Hp);
    let mut users = 0u32;
    let mut hosts = 0u32;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut it = l.split_ascii_whitespace();
        // `l` is non-empty after the trim above, but stay total anyway:
        // this loop runs over attacker-controlled lines.
        let Some(tag) = it.next() else { continue };
        match tag {
            "family" => {
                let name = it.next().ok_or_else(|| err(line, "missing family name"))?;
                let f =
                    TraceFamily::from_name(name).ok_or_else(|| err(line, "unknown family name"))?;
                family = Some(f);
                trace.family = f;
                trace.label = format!("{}(parsed)", f.name());
            }
            "users" => {
                users = parse_num(it.next(), line, "users")?;
            }
            "hosts" => {
                hosts = parse_num(it.next(), line, "hosts")?;
            }
            "file" => {
                let id: u32 = parse_num(it.next(), line, "file id")?;
                if id as usize != trace.files.len() {
                    return Err(err(line, "file ids must be dense and in order"));
                }
                let dev: u32 = parse_num(it.next(), line, "dev")?;
                let size: u64 = parse_num(it.next(), line, "size")?;
                let ro: u8 = parse_num(it.next(), line, "ro flag")?;
                let path_tok = it.next().ok_or_else(|| err(line, "missing path"))?;
                let path = if path_tok == "-" {
                    None
                } else {
                    Some(trace.paths.parse(path_tok))
                };
                trace.files.push(FileMeta {
                    path,
                    dev: DevId::new(dev),
                    size,
                    read_only: ro != 0,
                });
            }
            "ev" => {
                let ts: u64 = parse_num(it.next(), line, "timestamp")?;
                let op_tok = it.next().ok_or_else(|| err(line, "missing op"))?;
                let op = Op::from_token(op_tok).ok_or_else(|| err(line, "unknown op"))?;
                let file: u32 = parse_num(it.next(), line, "file")?;
                let uid: u32 = parse_num(it.next(), line, "uid")?;
                let pid: u32 = parse_num(it.next(), line, "pid")?;
                let host: u32 = parse_num(it.next(), line, "host")?;
                let app: u32 = parse_num(it.next(), line, "app")?;
                let bytes: u64 = parse_num(it.next(), line, "bytes")?;
                if file as usize >= trace.files.len() {
                    return Err(err(line, "event references unknown file"));
                }
                trace.events.push(TraceEvent {
                    seq: trace.events.len() as u64,
                    timestamp_us: ts,
                    op,
                    file: FileId::new(file),
                    dev: trace.files[file as usize].dev,
                    uid: UserId::new(uid),
                    pid: ProcId::new(pid),
                    host: HostId::new(host),
                    app,
                    bytes,
                });
            }
            _ => return Err(err(line, "unknown record tag")),
        }
        if it.next().is_some() {
            return Err(err(line, "trailing tokens after record"));
        }
    }

    if family.is_none() {
        return Err(err(0, "missing family header"));
    }
    trace.num_users = users;
    trace.num_hosts = hosts;
    trace.validate().map_err(|m| ParseError {
        line: 0,
        message: m,
    })?;
    Ok(trace)
}

fn parse_num<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    tok.ok_or_else(|| ParseError {
        line,
        message: format!("missing {what}"),
    })?
    .parse()
    .map_err(|_| ParseError {
        line,
        message: format!("invalid {what}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    #[test]
    fn roundtrip_hp_trace() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let text = to_text(&trace);
        let parsed = from_text(&text).expect("parse");
        assert_eq!(parsed.family, trace.family);
        assert_eq!(parsed.len(), trace.len());
        assert_eq!(parsed.num_files(), trace.num_files());
        assert_eq!(parsed.num_users, trace.num_users);
        for (a, b) in trace.events.iter().zip(&parsed.events) {
            assert_eq!(a.timestamp_us, b.timestamp_us);
            assert_eq!(a.op, b.op);
            assert_eq!(a.file, b.file);
            assert_eq!(a.uid, b.uid);
            assert_eq!(a.pid, b.pid);
            assert_eq!(a.host, b.host);
        }
        // Paths survive the roundtrip.
        for (a, b) in trace.files.iter().zip(&parsed.files) {
            let ra = a.path.as_ref().map(|p| trace.paths.render(p));
            let rb = b.path.as_ref().map(|p| parsed.paths.render(p));
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn roundtrip_pathless_trace() {
        let trace = WorkloadSpec::ins().scaled(0.01).generate();
        let text = to_text(&trace);
        let parsed = from_text(&text).expect("parse");
        assert!(parsed.files.iter().all(|f| f.path.is_none()));
        assert_eq!(parsed.len(), trace.len());
    }

    #[test]
    fn rejects_unknown_tag() {
        let e = from_text("family HP\nbogus 1\n").unwrap_err();
        assert!(e.message.contains("unknown record tag"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_missing_family() {
        assert!(from_text("users 3\n").is_err());
    }

    #[test]
    fn rejects_out_of_order_file_ids() {
        let e = from_text("family HP\nfile 1 0 10 1 /a/b\n").unwrap_err();
        assert!(e.message.contains("dense"));
    }

    #[test]
    fn rejects_event_with_unknown_file() {
        let text = "family HP\nfile 0 0 10 1 /a/b\nev 1 open 5 0 0 0 0 0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("unknown file"));
    }

    #[test]
    fn rejects_bad_op() {
        let text = "family HP\nfile 0 0 10 1 /a/b\nev 1 frobnicate 0 0 0 0 0 0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("unknown op"));
    }

    #[test]
    fn rejects_truncated_event_line() {
        let text = "family HP\nfile 0 0 10 1 /a/b\nev 1 open 0 0 0 0 0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("missing bytes"));
    }

    #[test]
    fn rejects_non_numeric_fields_with_line_numbers() {
        // Non-numeric timestamp.
        let text = "family HP\nfile 0 0 10 1 /a/b\nev abc open 0 0 0 0 0 0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("invalid timestamp"), "{e}");
        assert_eq!(e.line, 3);
        // Non-numeric uid.
        let text = "family HP\nfile 0 0 10 1 /a/b\nev 1 open 0 x 0 0 0 0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("invalid uid"), "{e}");
        assert_eq!(e.line, 3);
        // Negative (hence invalid for u64) size on a file record.
        let e = from_text("family HP\nfile 0 0 -5 1 /a/b\n").unwrap_err();
        assert!(e.message.contains("invalid size"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_truncated_file_record() {
        let e = from_text("family HP\nfile 0 0 10\n").unwrap_err();
        assert!(e.message.contains("missing ro flag"), "{e}");
        assert_eq!(e.line, 2);
        let e = from_text("family HP\nfile 0 0 10 1\n").unwrap_err();
        assert!(e.message.contains("missing path"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_truncated_header_records() {
        let e = from_text("family\n").unwrap_err();
        assert!(e.message.contains("missing family name"), "{e}");
        assert_eq!(e.line, 1);
        let e = from_text("family HP\nusers\n").unwrap_err();
        assert!(e.message.contains("missing users"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = from_text("family HP extra\n").unwrap_err();
        assert!(e.message.contains("trailing tokens"), "{e}");
        assert_eq!(e.line, 1);
        let text = "family HP\nfile 0 0 10 1 /a/b\nev 1 open 0 0 0 0 0 0 99\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("trailing tokens"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn rejects_unknown_tag_mid_file_after_valid_records() {
        let text = "family HP\nfile 0 0 10 1 /a/b\nev 1 open 0 0 0 0 0 0\nxev 2 open 0 0 0 0 0 0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("unknown record tag"), "{e}");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn malformed_inputs_never_panic() {
        // A grab-bag of hostile shapes: every one must come back as a
        // ParseError (or a valid trace), never a panic.
        let cases = [
            "",
            "\n\n\n",
            "ev 1 open 0 0 0 0 0 0",
            "file 0 0 10 1 /a",
            "family HP\nfile 99999999999 0 10 1 /a",
            "family HP\nfile 0 99999999999999999999 10 1 /a",
            "family HP\nev 18446744073709551616 open 0 0 0 0 0 0",
            "family XX",
            "family HP\nusers -1",
            "family HP\nfile 0 0 10 2 /a\nev 1 stat 0 0 0 0 0 0",
            "family HP\nfile 0 0 10 1 //",
            "# only a comment",
        ];
        for c in cases {
            let _ = from_text(c);
        }
    }

    #[test]
    fn app_field_roundtrips() {
        let trace = WorkloadSpec::hp().scaled(0.01).generate();
        let parsed = from_text(&to_text(&trace)).expect("parse");
        for (a, b) in trace.events.iter().zip(&parsed.events) {
            assert_eq!(a.app, b.app);
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hi\n\nfamily INS\n# another\n";
        let t = from_text(text).expect("parse");
        assert_eq!(t.family, TraceFamily::Ins);
        assert!(t.is_empty());
    }

    /// What the soup tests build their inputs from: every word of the
    /// record grammar, numbers at and past the edges of their types, and
    /// separators.
    const TOKENS: [&str; 40] = [
        "family",
        "users",
        "hosts",
        "file",
        "ev",
        "HP",
        "INS",
        "RES",
        "LLNL",
        "hp",
        "XX",
        "open",
        "read",
        "write",
        "stat",
        "create",
        "unlink",
        "close",
        "-",
        "/",
        "//",
        "/a/b/c",
        "/a/./b",
        "a",
        "0",
        "1",
        "2",
        "7",
        "-1",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "#",
        "# farmer-trace v1",
        "\u{feff}",
        "é",
        "\t",
        "\r",
    ];

    /// A small HP trace in the text format (a few users and apps, a few
    /// hundred events): what one mutated byte is applied to.
    fn hp_text() -> &'static [u8] {
        static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        TEXT.get_or_init(|| {
            let small = WorkloadSpec {
                num_events: 300,
                num_users: 4,
                global_apps: 2,
                private_apps_per_user: 1,
                shared_files: 8,
                extra_files_per_user: 2,
                ..WorkloadSpec::hp()
            };
            to_text(&small.generate())
        })
        .as_bytes()
    }

    #[test]
    fn mutated_trace_starts_from_a_valid_one() {
        let text = std::str::from_utf8(hp_text()).expect("to_text writes UTF-8");
        let trace = from_text(text).expect("unmutated trace parses");
        assert!(
            trace.len() == 300 && trace.num_files() > 20,
            "{}",
            trace.num_files()
        );
        assert!(trace.files.iter().all(|f| f.path.is_some()));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes (read as text the way a caller holding bytes
        /// would, invalid UTF-8 replaced) parse or fail, never panic.
        #[test]
        fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
            let _ = from_text(&String::from_utf8_lossy(&bytes));
        }

        /// Soup of grammar words and separators: mostly well-formed
        /// records with the wrong arity, order, ids or magnitudes.
        #[test]
        fn token_soup_never_panics(
            soup in proptest::collection::vec((0..TOKENS.len(), 0u8..8), 0..80)
        ) {
            let mut text = String::from("family HP\n");
            for (token, sep) in soup {
                text.push_str(TOKENS[token]);
                text.push_str(match sep {
                    0 => "\n",
                    1 => "\t",
                    _ => " ",
                });
            }
            let _ = from_text(&text);
        }

        /// A real trace with one byte replaced parses or fails, never
        /// panics.
        #[test]
        fn one_mutated_byte_never_panics(at in 0.0f64..1.0, byte in any::<u8>()) {
            let mut bytes = hp_text().to_vec();
            let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[i] = byte;
            let _ = from_text(&String::from_utf8_lossy(&bytes));
        }
    }
}
