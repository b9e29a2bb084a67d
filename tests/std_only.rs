//! The workspace depends on `std` and its own path crates only. A package
//! that comes from a registry or from git carries a `source = ..` line in
//! `Cargo.lock`; path packages never do. This is the check that runs in
//! every session, so an external crate cannot come back unnoticed.

#[test]
fn cargo_lock_names_no_external_package() {
    let lock = include_str!("../Cargo.lock");
    let mut packages = 0;
    for entry in lock.split("[[package]]").skip(1) {
        packages += 1;
        let field = |key: &str| entry.lines().find_map(|l| l.strip_prefix(key));
        let name = field("name = ").expect("every package entry has a name");
        assert!(
            field("source = ").is_none(),
            "package {name} is not a path crate of this workspace:{entry}"
        );
    }
    // guards the guard: a lockfile format change must not pass vacuously
    assert!(
        packages >= 9,
        "found only {packages} packages in Cargo.lock"
    );
}
