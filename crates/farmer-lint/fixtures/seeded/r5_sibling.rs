// Seeded R5 violations: an instrumented entry point with no plain
// sibling, and one whose sibling does not delegate.
pub fn mine_instrumented(input: &[u64], reg: &Registry) -> u64 {
    let _ = reg;
    input.len() as u64
}

pub fn drain(input: &[u64]) -> u64 {
    input.len() as u64
}

pub fn drain_instrumented(input: &[u64], reg: &Registry) -> u64 {
    let _ = reg;
    input.len() as u64
}
