//! The legitimate home of the fixture's `FNPR3` tag.

pub const STORE_FORMAT: &str = "FNPR3";
