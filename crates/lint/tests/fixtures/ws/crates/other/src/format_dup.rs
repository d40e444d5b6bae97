//! Seeded violations: a second crate defining `FNPR3` (expected at
//! line 4) and an inline tag literal (expected at line 7).

pub const ALSO_STORE_FORMAT: &str = "FNPR3";

pub fn frame() -> String {
    format!("{} payload", "FNPR3 0001")
}
