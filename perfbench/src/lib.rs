//! Helpers of the update-window benchmark shared by its binary and tests.

pub mod reference;
pub mod stats;
