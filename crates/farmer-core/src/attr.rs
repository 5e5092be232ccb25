//! Semantic attribute kinds and combinations.
//!
//! The paper's Table 5 sweeps every combination of four attributes — for the
//! HP trace {User, Process, Host, File path}, for INS/RES {User, Process,
//! Host, File ID} (those traces record no paths) — and shows the choice of
//! combination moves the cache hit ratio by up to ~13 points. [`AttrCombo`]
//! is a small bitmask over [`AttrKind`] that drives which items enter the
//! semantic vectors, and it can enumerate exactly the paper's sweep.

use std::fmt;

/// One semantic attribute of a file request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Requesting user id.
    User,
    /// Requesting process id.
    Process,
    /// Requesting host id.
    Host,
    /// Full file path (HP/LLNL-style traces).
    Path,
    /// The file's own id (the INS/RES substitute for a path).
    FileId,
    /// Device/volume id.
    Dev,
}

impl AttrKind {
    /// All kinds, in bit order.
    pub const ALL: [AttrKind; 6] = [
        AttrKind::User,
        AttrKind::Process,
        AttrKind::Host,
        AttrKind::Path,
        AttrKind::FileId,
        AttrKind::Dev,
    ];

    const fn bit(self) -> u8 {
        match self {
            AttrKind::User => 1 << 0,
            AttrKind::Process => 1 << 1,
            AttrKind::Host => 1 << 2,
            AttrKind::Path => 1 << 3,
            AttrKind::FileId => 1 << 4,
            AttrKind::Dev => 1 << 5,
        }
    }

    /// Display label matching the paper's Table 5 rows.
    pub fn label(self) -> &'static str {
        match self {
            AttrKind::User => "User",
            AttrKind::Process => "Process",
            AttrKind::Host => "Host",
            AttrKind::Path => "File path",
            AttrKind::FileId => "File ID",
            AttrKind::Dev => "Dev",
        }
    }
}

/// A set of semantic attributes entering the vector-space model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AttrCombo(u8);

impl AttrCombo {
    /// The empty combination (semantic distance identically 0; with it
    /// FARMER degenerates to pure sequence mining, paper §7).
    pub const EMPTY: AttrCombo = AttrCombo(0);

    /// The paper's default for path-bearing traces:
    /// {User, Process, Host, File path}.
    pub fn hp_default() -> AttrCombo {
        AttrCombo::EMPTY
            .with(AttrKind::User)
            .with(AttrKind::Process)
            .with(AttrKind::Host)
            .with(AttrKind::Path)
    }

    /// The paper's default for pathless traces:
    /// {User, Process, Host, File ID}.
    pub fn ins_default() -> AttrCombo {
        AttrCombo::EMPTY
            .with(AttrKind::User)
            .with(AttrKind::Process)
            .with(AttrKind::Host)
            .with(AttrKind::FileId)
    }

    /// Add one attribute (builder style).
    #[must_use]
    pub const fn with(self, kind: AttrKind) -> AttrCombo {
        AttrCombo(self.0 | kind.bit())
    }

    /// Remove one attribute.
    #[must_use]
    pub const fn without(self, kind: AttrKind) -> AttrCombo {
        AttrCombo(self.0 & !kind.bit())
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, kind: AttrKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Number of attributes in the combination.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True for the empty combination.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of *scalar* vector items this combo contributes (everything
    /// except Path, which is handled by the path algorithms).
    #[cfg(test)]
    fn scalar_items(self) -> usize {
        self.len() - usize::from(self.contains(AttrKind::Path))
    }

    /// Enumerate every non-empty subset of the given base attributes —
    /// the paper's Table 5 sweep (15 combos for a 4-attribute base).
    pub fn sweep(base: &[AttrKind]) -> Vec<AttrCombo> {
        let n = base.len();
        let mut combos = Vec::with_capacity((1 << n) - 1);
        for mask in 1u32..(1 << n) {
            let mut c = AttrCombo::EMPTY;
            for (i, &k) in base.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    c = c.with(k);
                }
            }
            combos.push(c);
        }
        combos
    }

    /// The Table 5 base for path-bearing traces.
    pub const HP_BASE: [AttrKind; 4] = [
        AttrKind::User,
        AttrKind::Process,
        AttrKind::Host,
        AttrKind::Path,
    ];

    /// The Table 5 base for pathless traces.
    pub const INS_BASE: [AttrKind; 4] = [
        AttrKind::User,
        AttrKind::Process,
        AttrKind::Host,
        AttrKind::FileId,
    ];

    /// Iterate over the kinds present, in bit order.
    pub fn iter(self) -> impl Iterator<Item = AttrKind> {
        AttrKind::ALL.into_iter().filter(move |k| self.contains(*k))
    }
}

impl fmt::Display for AttrCombo {
    /// Formats as `{User, Process, File path}`, matching Table 5 rows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for k in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}", k.label())?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for AttrCombo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_without_contains() {
        let c = AttrCombo::EMPTY.with(AttrKind::User).with(AttrKind::Path);
        assert!(c.contains(AttrKind::User));
        assert!(c.contains(AttrKind::Path));
        assert!(!c.contains(AttrKind::Host));
        assert_eq!(c.len(), 2);
        let c2 = c.without(AttrKind::User);
        assert!(!c2.contains(AttrKind::User));
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn defaults_match_paper_bases() {
        let hp = AttrCombo::hp_default();
        assert!(hp.contains(AttrKind::Path));
        assert!(!hp.contains(AttrKind::FileId));
        assert_eq!(hp.len(), 4);
        let ins = AttrCombo::ins_default();
        assert!(ins.contains(AttrKind::FileId));
        assert!(!ins.contains(AttrKind::Path));
    }

    #[test]
    fn sweep_enumerates_fifteen_combos() {
        let combos = AttrCombo::sweep(&AttrCombo::HP_BASE);
        assert_eq!(combos.len(), 15);
        // All distinct.
        let mut seen = std::collections::HashSet::new();
        for c in &combos {
            assert!(seen.insert(c.0));
        }
        // The full combo is included.
        assert!(combos.contains(&AttrCombo::hp_default()));
    }

    #[test]
    fn scalar_items_excludes_path() {
        assert_eq!(AttrCombo::hp_default().scalar_items(), 3);
        assert_eq!(AttrCombo::ins_default().scalar_items(), 4);
        assert_eq!(AttrCombo::EMPTY.scalar_items(), 0);
    }

    #[test]
    fn display_lists_labels() {
        let c = AttrCombo::EMPTY
            .with(AttrKind::User)
            .with(AttrKind::Process);
        assert_eq!(c.to_string(), "{User, Process}");
        assert_eq!(AttrCombo::EMPTY.to_string(), "{}");
    }

    #[test]
    fn iter_yields_members_in_bit_order() {
        let c = AttrCombo::EMPTY.with(AttrKind::Host).with(AttrKind::User);
        let v: Vec<AttrKind> = c.iter().collect();
        assert_eq!(v, vec![AttrKind::User, AttrKind::Host]);
    }
}
