//! The paper artifacts, pinned: every table and figure binary must print
//! exactly the text recorded under `tests/fixtures/paper/<name>.txt`.
//!
//! The binaries are deterministic (seeded, no wall-clock numbers) and
//! print the same bytes in debug and release builds. A change that moves
//! a reproduced number shows up here as a fixture diff. To re-record after
//! an intended change, run the binary and overwrite its fixture:
//! `cargo run --release -p coruscant-bench --bin table3 > crates/bench/tests/fixtures/paper/table3.txt`.

use std::path::Path;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/paper")
        .join(format!("{name}.txt"));
    let want =
        std::fs::read_to_string(&fixture).unwrap_or_else(|e| panic!("{}: {e}", fixture.display()));
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name} output differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            fixture.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

macro_rules! pinned {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            }
        )*
    };
}

pinned!(
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    fig10,
    fig11,
    fig12,
    sensitivity,
    ablation_tw,
    all_experiments,
);
