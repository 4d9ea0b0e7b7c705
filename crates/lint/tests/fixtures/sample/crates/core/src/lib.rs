//! Lint-test fixture: every violation below is INTENTIONAL. This file is
//! never compiled; it exists to pin fedval-lint's behavior in the golden
//! test.

pub fn near_half(x: f64) -> bool {
    x == 0.5
}

pub fn is_unset(x: f64) -> bool {
    // clippy's float_cmp exempts comparisons against zero; float-eq does not.
    x == 0.0
}

pub fn sanctioned_sentinel(x: f64) -> bool {
    // lint: allow(float-eq) — fixture: justified markers suppress.
    x == -1.0
}

pub fn hollow_marker(x: f64) -> bool {
    // lint: allow(float-eq)
    x != 2.5
}

#[cfg(test)]
mod tests {
    #[test]
    fn float_eq_is_fine_in_tests() {
        assert!(0.5 == 0.5);
    }
}
