// Seeded R6 violation: a sleeping test.
#[cfg(test)]
mod tests {
    #[test]
    fn waits_by_sleeping() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}
