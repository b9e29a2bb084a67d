//! Every public field of a configuration struct has a row in DESIGN.md's
//! table "Knobs and the artifact that exercises each", and every row names
//! a field that exists. A knob stays only while a figure, bench row or test
//! shows an outcome that depends on it; the table is where that evidence is
//! written down, and this scan is what stops a field from being added (or a
//! row from outliving its field) without it.

use std::collections::BTreeSet;

/// The configuration structs, each with the source that defines it.
const CONFIGS: &[(&str, &str)] = &[
    (
        "TsuConfig",
        include_str!("../crates/tflux-core/src/tsu/config.rs"),
    ),
    (
        "RuntimeConfig",
        include_str!("../crates/tflux-runtime/src/runtime.rs"),
    ),
    (
        "RetryPolicy",
        include_str!("../crates/tflux-runtime/src/runtime.rs"),
    ),
    (
        "ServerConfig",
        include_str!("../crates/tflux-runtime/src/server.rs"),
    ),
    ("MachineConfig", SIM_CONFIG),
    ("Topology", SIM_CONFIG),
    ("TsuCosts", SIM_CONFIG),
    ("CacheConfig", SIM_CONFIG),
    (
        "CellConfig",
        include_str!("../crates/tflux-cell/src/config.rs"),
    ),
];

const SIM_CONFIG: &str = include_str!("../crates/tflux-sim/src/config.rs");

const HEADING: &str = "Knobs and the artifact that exercises each";

/// `Name::field` for every `pub` field of `pub struct Name { .. }` (rustfmt
/// layout: fields indented four spaces, the closing brace at column 0).
fn pub_fields(name: &str, source: &str) -> Vec<String> {
    let open = format!("pub struct {name} {{");
    let body = source
        .split_once(&open)
        .unwrap_or_else(|| panic!("`{open}` not found"))
        .1;
    let body = body.split_once("\n}").expect("struct body closes").0;
    body.lines()
        .filter_map(|l| l.strip_prefix("    pub "))
        .filter_map(|l| l.split_once(':'))
        .map(|(field, _)| format!("{name}::{field}"))
        .collect()
}

/// The first-column knob of every row of the table under [`HEADING`].
fn table_rows(design: &str) -> BTreeSet<String> {
    let section = design
        .split_once(HEADING)
        .unwrap_or_else(|| panic!("DESIGN.md has no \"{HEADING}\" table"))
        .1;
    // the table ends at the next heading
    let section = section.split("\n#").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`'))
        .map(|(knob, _)| knob.to_string())
        .collect()
}

#[test]
fn every_config_field_has_a_row_and_every_row_a_field() {
    let rows = table_rows(include_str!("../DESIGN.md"));
    let mut fields = BTreeSet::new();
    for (name, source) in CONFIGS {
        let found = pub_fields(name, source);
        // guards the guard: a layout change must not pass vacuously
        assert!(!found.is_empty(), "{name}: no pub field parsed");
        fields.extend(found);
    }
    for f in &fields {
        assert!(
            rows.contains(f),
            "`{f}` has no row in DESIGN.md \"{HEADING}\": name the figure, \
             bench row or test whose outcome depends on it, or make it a constant"
        );
    }
    for r in &rows {
        assert!(
            fields.contains(r),
            "DESIGN.md \"{HEADING}\" has a row for `{r}`, which is not a pub \
             field of any configuration struct"
        );
    }
}
