// Clean R6 counterpart: the one test that must sleep says why.
#[cfg(test)]
mod tests {
    #[test]
    fn waits_for_detached_worker() {
        #[expect(
            clippy::disallowed_methods,
            reason = "the panicking worker cannot be joined; there is no completion signal \
                      to poll for"
        )]
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}
