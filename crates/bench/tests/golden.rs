//! Golden-output pinning: the `--quick` renderings of Fig. 9, Fig. 13 and
//! the resilience sweep must stay byte-identical to the committed fixtures.
//!
//! These fixtures were captured from the runner (`vrd-bench -- fig09
//! --quick`, `-- fig13 --quick`, `-- resilience --quick`) and the test goes
//! through the same registry rows it dispatches to; any change to seeding,
//! trace layout, scheduling arithmetic or table formatting shows up here as
//! a diff. Refresh a fixture only when an output change is intended, by
//! re-running the command and committing the new capture.

use vrd_bench::registry::{parse_args, Session};

fn fixture(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

fn assert_pinned(actual: &str, name: &str) {
    let expected = fixture(name);
    assert!(
        actual == expected,
        "{name} drifted from the committed fixture.\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn quick_outputs_match_committed_fixtures() {
    let args = ["fig09", "fig13", "resilience", "--quick"];
    let (scale, rows) = parse_args(args.map(String::from)).expect("registered names");
    let mut session = Session::new(scale);
    let mut outputs = rows.iter().map(|(_, runner)| session.run(*runner));
    let mut next = || outputs.next().expect("one output per name");

    // The runner prints the rendering with a trailing println newline.
    assert_pinned(&format!("{}\n", next().text), "fig09_quick.txt");
    assert_pinned(&format!("{}\n", next().text), "fig13_quick.txt");

    let sweep = next();
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    let [(txt_path, txt), (json_path, json)] = &sweep.files[..] else {
        panic!("resilience owns two artefacts, got {}", sweep.files.len());
    };
    assert_eq!(
        (*txt_path, *json_path),
        ("results_resilience.txt", "results_resilience.json")
    );
    assert_eq!(txt, &sweep.text, "the printed table is the written one");
    assert_pinned(txt, "resilience_quick_results.txt");
    assert_pinned(json, "resilience_quick_results.json");
}
