//! Aligned text tables, number formatters and the unified CLI parsing for
//! harness output.
//!
//! Both bins parse their command line through [`BenchArgs`], so `--quick`
//! (and the optional positional scale override) behaves identically
//! across them and a mistyped flag stops the run instead of silently
//! skipping what it was meant to turn on. (The ordered JSON value the
//! `eval_matrix` record is built from lives in `farmer-obs`.)

/// Unified bench-bin command line:
/// `[scale] [--quick] [--check] [--obs] [--only <name>]`.
///
/// `--quick` selects the bin's declared quick scale (the CI smoke size);
/// an explicit positional scale — finite and positive — always wins, and
/// any other positional is ignored. An unknown `--flag` is an error:
/// `eval_matrix -- --chek` must not run the matrix, check nothing and
/// exit 0.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Effective trace/query scale factor.
    pub scale: f64,
    /// `--check` was passed (verify against the reference model and fail
    /// out-of-band; only meaningful to bins with a reference model).
    pub check: bool,
    /// `--obs` was passed: print the instrumented legs' `farmer-obs`
    /// registries.
    pub obs: bool,
    /// `--only <name>` was passed: run that one section.
    pub only: Option<&'static str>,
}

impl BenchArgs {
    /// Parse `std::env::args()`, resolving the scale to `quick_scale`
    /// under `--quick` and `1.0` otherwise unless a positional scale is
    /// given. `sections` are the names `--only` accepts (none: the bin
    /// has no such flag). Prints the problem and the usage on stderr and
    /// exits 2 on an unknown flag or section.
    pub fn parse(quick_scale: f64, sections: &[&'static str]) -> BenchArgs {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        Self::from_iter(args, quick_scale, sections).unwrap_or_else(|problem| {
            let only = sections.first().map_or("", |_| " [--only <name>]");
            eprintln!("{bin}: {problem}\nusage: {bin} [scale] [--quick] [--check] [--obs]{only}");
            std::process::exit(2);
        })
    }

    /// Testable core of [`BenchArgs::parse`]: the arguments after the
    /// program name, or what is wrong with them.
    pub fn from_iter(
        args: impl IntoIterator<Item = String>,
        quick_scale: f64,
        sections: &[&'static str],
    ) -> Result<BenchArgs, String> {
        let mut out = BenchArgs {
            scale: 1.0,
            check: false,
            obs: false,
            only: None,
        };
        let mut quick = false;
        let mut explicit_scale = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--check" => out.check = true,
                "--obs" => out.obs = true,
                "--only" if !sections.is_empty() => {
                    let wanted = args.next().unwrap_or_default();
                    out.only = sections.iter().copied().find(|&s| s == wanted);
                    if out.only.is_none() {
                        let names = sections.join(", ");
                        return Err(format!("--only needs one of: {names} (got {wanted:?})"));
                    }
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                // `"inf".parse::<f64>()` is `Ok`: a scale must also be
                // finite, or the generators overflow their capacity.
                other => match other.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => explicit_scale = Some(s),
                    _ => {}
                },
            }
        }
        out.scale = explicit_scale.unwrap_or(if quick { quick_scale } else { 1.0 });
        Ok(out)
    }
}

/// A simple column-aligned table builder.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Render with two-space gutters, left-aligned first column and
    /// right-aligned numeric columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], out: &mut String| {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    out.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    out.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Format a ratio as a percentage with two decimals ("64.04%").
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Format milliseconds with three decimals.
pub fn ms(x: f64) -> String {
    format!("{x:.3}ms")
}

/// Format bytes as MB with one decimal.
pub fn mb(bytes: usize) -> String {
    format!("{:.1}MB", bytes as f64 / 1_048_576.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
        assert!(lines[3].starts_with("longer-name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.6404), "64.04%");
        assert_eq!(ms(1.2345), "1.234ms"); // f64 formatting truncates via rounding
        assert_eq!(mb(10 * 1_048_576), "10.0MB");
    }

    #[test]
    fn empty_table_renders() {
        let t = TextTable::new(&["only"]);
        let s = t.render();
        assert!(s.contains("only"));
    }

    #[test]
    fn bench_args_quick_and_override() {
        let parse = |args: &[&str], quick_scale: f64| {
            BenchArgs::from_iter(
                args.iter().map(|a| a.to_string()),
                quick_scale,
                &["fig7", "table2"],
            )
        };
        let q = parse(&["--quick"], 0.05).unwrap();
        assert!(!q.check);
        assert_eq!(q.scale, 0.05);
        let full = parse(&[], 0.05).unwrap();
        assert_eq!(full.scale, 1.0);
        let over = parse(&["--quick", "0.5", "--check"], 0.05).unwrap();
        assert_eq!(over.scale, 0.5, "explicit scale beats --quick");
        assert!(over.check);
        let obs = parse(&["--obs"], 0.1).unwrap();
        assert!(obs.obs && obs.scale == 1.0);
        // A scale is finite and positive; any other positional is ignored,
        // not handed to a generator.
        for bad in ["inf", "-inf", "NaN", "-1", "0", "junk"] {
            let a = parse(&[bad], 0.1).unwrap();
            assert_eq!(a.scale, 1.0, "{bad} must not become the scale");
            let q = parse(&["--quick", bad], 0.1).unwrap();
            assert_eq!(q.scale, 0.1, "{bad} must not override --quick");
        }
        // A mistyped flag stops the run: it must not skip the gate.
        for typo in ["--chek", "--nocapture", "--check=1"] {
            let err = parse(&["--quick", typo], 0.1).unwrap_err();
            assert!(err.contains(typo), "{typo}: {err}");
        }
        // `--only` takes one of the bin's sections ...
        let only = parse(&["0.2", "--only", "fig7"], 0.1).unwrap();
        assert_eq!((only.only, only.scale), (Some("fig7"), 0.2));
        assert_eq!(parse(&[], 0.1).unwrap().only, None);
        for bad in [&["--only", "fig9"][..], &["--only"], &["--only", "--quick"]] {
            let err = parse(bad, 0.1).unwrap_err();
            assert!(err.contains("fig7, table2"), "{bad:?}: {err}");
        }
        // ... and is one more unknown flag to a bin that has none.
        let none = BenchArgs::from_iter(["--only".into(), "fig7".into()], 0.1, &[]);
        assert_eq!(none.unwrap_err(), "unknown flag --only");
    }
}
