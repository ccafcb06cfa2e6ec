//! Test support shared by the differential suites: the reference
//! interpreter of docs/SEMANTICS.md and the rule-shape pool. Nothing here
//! may name the engine (`scripts/check.sh` greps for it): the driver that
//! runs the engine and holds it to the reference is `../differential/`.

// Each suite uses its own part of the module.
#![allow(dead_code)]

pub mod reference;
pub mod shapes;
