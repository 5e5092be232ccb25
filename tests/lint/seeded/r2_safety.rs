// Seeded R2 violations: 2 × `unsafe` without a `// SAFETY:` comment.
pub struct Slot(*mut u8);

unsafe impl Send for Slot {}

pub fn read(s: &Slot) -> u8 {
    unsafe { *s.0 }
}
