// Clean R3 counterpart: errors propagated, invariants annotated with a
// reason, and tests free to unwrap.
pub fn head(v: &[u32]) -> Option<u32> {
    v.first().copied()
}

pub fn tail(v: &[u32]) -> Result<u32, &'static str> {
    v.last().copied().ok_or("empty input")
}

pub fn grow(v: &mut Vec<u32>) {
    #[expect(
        clippy::unwrap_used,
        reason = "caller guarantees non-empty: the mining loop only reaches here after \
                  the batch-size check in ingest()"
    )]
    v.push(*v.first().unwrap());
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_here() {
        assert_eq!(super::tail(&[1]).unwrap(), super::head(&[1]).expect("one"));
    }
}
