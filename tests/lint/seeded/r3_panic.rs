// Seeded R3 violations: unwrap, expect, panic!, a reason-less escape
// hatch and todo!, once each.
pub fn head(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub fn tail(v: &[u32]) -> u32 {
    *v.last().expect("non-empty")
}

pub fn grow(v: &mut Vec<u32>) {
    if v.len() > 1 << 20 {
        panic!("too big");
    }
    #[expect(clippy::unwrap_used)]
    v.push(*v.first().unwrap());
}

pub fn later() -> u32 {
    todo!()
}
