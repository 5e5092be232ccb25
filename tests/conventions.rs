//! The two conventions clippy cannot state (README "Static analysis"),
//! checked line by line on a seeded input, a clean one and the workspace.
//!
//! * **R1.** In the lock-free modules, every line naming an atomic
//!   `Ordering` has an `// ord:` comment on it or in the comment block
//!   directly above (attribute lines are skipped). `use` statements and
//!   the `#[cfg(test)] mod tests` tail are exempt. An ordering named in a
//!   string literal counts too: the check reads lines, not tokens.
//! * **R5.** Every library `pub fn foo_instrumented` has a `fn foo` in
//!   the same file whose body calls it or builds a `Registry::disabled()`.

use std::path::{Path, PathBuf};

const LOCK_FREE: [&str; 5] = [
    "crates/farmer-serve/src/ring.rs",
    "crates/farmer-serve/src/serve.rs",
    "crates/farmer-stream/src/publish.rs",
    "crates/farmer-obs/src/metric.rs",
    "crates/farmer-obs/src/hist.rs",
];

fn non_test(src: &str) -> Vec<&str> {
    let body = src.split("\n#[cfg(test)]\nmod tests").next();
    body.unwrap_or(src).lines().collect()
}

/// The 1-based lines naming an ordering without an `// ord:`.
fn unjustified_orderings(src: &str) -> Vec<usize> {
    let lines = non_test(src);
    let (mut in_use, mut flagged) = (false, Vec::new());
    for (i, line) in lines.iter().enumerate() {
        let (code, comment) = line.split_once("//").unwrap_or((line, ""));
        let item = code.trim_start();
        in_use |= item.starts_with("use ") || item.starts_with("pub use ");
        if in_use {
            in_use = !code.contains(';');
            continue;
        }
        let words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        let orderings = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
        if !words.into_iter().any(|w| orderings.contains(&w)) || comment.contains("ord:") {
            continue;
        }
        let above = lines[..i].iter().rev().map(|l| l.trim_start());
        let mut block = above.take_while(|l| l.starts_with("//") || l.starts_with('#'));
        if !block.any(|l| l.starts_with("//") && l.contains("ord:")) {
            flagged.push(i + 1);
        }
    }
    flagged
}

/// The `pub fn *_instrumented` whose plain twin is missing or does not
/// delegate.
fn undelegated_twins<'a>(src: &'a str) -> Vec<&'a str> {
    let lines = non_test(src);
    let word = |s: &'a str| s.split(|c: char| !(c.is_alphanumeric() || c == '_')).next();
    let pub_fns = lines
        .iter()
        .filter_map(|l| l.trim_start().strip_prefix("pub fn "));
    let names = pub_fns
        .filter_map(word)
        .filter(|n| n.ends_with("_instrumented"));
    let delegates = |name: &str| {
        let body = twin_body(&lines, name.trim_end_matches("_instrumented"));
        body.is_some_and(|b| b.contains(name) || b.contains("disabled()"))
    };
    names.filter(|n| !delegates(n)).collect()
}

/// The lines of `fn base`, from its signature to the `}` at its indent.
fn twin_body(lines: &[&str], base: &str) -> Option<String> {
    let (call, generic) = (format!("fn {base}("), format!("fn {base}<"));
    let head = |l: &&str| l.contains(&call) || l.contains(&generic);
    let at = lines.iter().position(head)?;
    let indent = lines[at].len() - lines[at].trim_start().len();
    let close = format!("{}}}", &lines[at][..indent]);
    let one_line = lines[at].ends_with('}');
    let len = lines[at..].iter().position(|l| one_line || *l == close);
    Some(lines[at..=at + len.unwrap_or(0)].join("\n"))
}

/// Every `.rs` file under `dir`, binaries and tests excluded.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        if path.is_dir() && !path.ends_with("bin") && !path.ends_with("tests") {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn lock_free_orderings_are_justified() {
    let seeded = "use std::sync::atomic::Ordering::Relaxed;
    slot.load(Ordering::Acquire);
    // ord: a blank line cuts this comment off from the site below

    slot.fetch_add(1, Relaxed);
    slot.fetch_add(1, Relaxed);
";
    assert_eq!(unjustified_orderings(seeded), [2, 5, 6]);
    let clean = "use std::sync::atomic::{
    AtomicU64, Ordering,
};
    // ord: Acquire pairs with the Release store in `publish`.
    #[allow(unused_must_use, reason = \"attribute lines are skipped\")]
    slot.load(Ordering::Acquire);
    slot.fetch_add(1, Relaxed); // ord: a counter, no payload to order
#[cfg(test)]
mod tests {
    slot.store(0, Ordering::SeqCst);
}
";
    assert!(unjustified_orderings(clean).is_empty());

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut flagged = Vec::new();
    for rel in LOCK_FREE {
        let lines = unjustified_orderings(&read(&root.join(rel)));
        flagged.extend(lines.into_iter().map(|l| format!("{rel}:{l}")));
    }
    assert!(flagged.is_empty(), "no `// ord:` at {flagged:#?}");
    // The check sees the modules' sites: without their comments, it flags.
    let bare = read(&root.join(LOCK_FREE[0])).replace("ord:", "ord-");
    assert!(!unjustified_orderings(&bare).is_empty());
}

#[test]
fn plain_twins_delegate() {
    let seeded = "pub fn mine_instrumented(input: &[u64], reg: &Registry) -> u64 {
pub fn drain(input: &[u64]) -> u64 {
    input.len() as u64
}
pub fn drain_instrumented(input: &[u64], reg: &Registry) -> u64 {
";
    let expected = ["mine_instrumented", "drain_instrumented"];
    assert_eq!(undelegated_twins(seeded), expected);
    let clean =
        "    pub fn mine(x: &[u64]) -> u64 { Self::mine_instrumented(x, &Registry::disabled()) }
    pub fn mine_instrumented(input: &[u64], reg: &Registry) -> u64 {
    pub fn drain<T>(input: &[T]) -> usize {
        let reg = Registry::disabled();
        Self::drain_instrumented(input, &reg)
    }
    pub fn drain_instrumented<T>(input: &[T], reg: &Registry) -> usize {
";
    assert!(undelegated_twins(clean).is_empty());

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    rs_files(&root.join("crates"), &mut files);
    let (mut twins, mut flagged) = (0, Vec::new());
    for path in &files {
        let src = read(path);
        twins += src.matches("_instrumented(").count();
        let rel = path.strip_prefix(root).unwrap_or(path).display();
        let found = undelegated_twins(&src);
        flagged.extend(found.iter().map(|f| format!("{rel}: {f}")));
    }
    assert!(twins > 0, "the check found no instrumented entry point");
    assert!(flagged.is_empty(), "no delegating twin: {flagged:#?}");
}
