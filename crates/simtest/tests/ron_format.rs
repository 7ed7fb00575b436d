//! What `SimScenario::from_ron` accepts, and what it turns down.
//!
//! It accepts files written before the late fields existed (they end after
//! `inject`, `leaves`, `codec` or `bandwidth_bps`) and fields in any order.
//! It turns down, with an error that names the offending field or variant
//! and never with a panic, malformed text and scenarios the run would
//! assert on: node or server ids the topology does not have, per-client
//! lists of the wrong length, probabilities outside [0, 1], empty windows.

use spyker_simtest::SimScenario;

/// A scenario that sets every field; 3 servers, 4 clients and 1 standby,
/// so node ids 0..8.
const EVERY_VARIANT: &str = include_str!("golden/every_variant.ron");

/// The fields added after the first format, in the order they are written.
const LATE: [&str; 7] = [
    "joins_us",
    "leaves",
    "codec",
    "avail",
    "compute_mul",
    "bandwidth_bps",
    "preset",
];

fn is_field(line: &str, field: &str) -> bool {
    line.trim_start().starts_with(&format!("{field}:"))
}

/// `ron` without the lines that set `fields`.
fn without(ron: &str, fields: &[&str]) -> String {
    ron.lines()
        .filter(|l| !fields.iter().any(|f| is_field(l, f)))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `ron` with the value of `field` replaced by `value`.
fn set(ron: &str, field: &str, value: &str) -> String {
    let out: String = ron
        .lines()
        .map(|l| {
            if is_field(l, field) {
                format!("{}: {value},\n", l.split(':').next().unwrap_or_default())
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert_ne!(out, ron, "no `{field}` line");
    out
}

/// `text` must be refused with a message that contains every one of `names`.
fn refused(text: &str, names: &[&str]) {
    match SimScenario::from_ron(text) {
        Ok(_) => panic!("accepted:\n{text}"),
        Err(e) => {
            for name in names {
                assert!(e.contains(name), "`{e}` does not name `{name}`");
            }
        }
    }
}

#[test]
fn files_written_before_the_late_fields_still_parse() {
    // A file of each older format ends after one field; the last two
    // cases drop the membership and the codec fields from the middle.
    let cases: [(&str, &[&str]); 6] = [
        ("ends after inject", &LATE),
        ("ends after leaves", &LATE[2..]),
        ("ends after codec", &LATE[3..]),
        ("ends after bandwidth_bps", &LATE[6..]),
        ("no joins_us or leaves", &LATE[..2]),
        ("no codec", &LATE[2..3]),
    ];
    for seed in 0..16 {
        let sc = SimScenario::generate(seed);
        let ron = sc.to_ron();
        for (case, fields) in cases {
            let legacy = without(&ron, fields);
            assert_eq!(legacy.lines().count() + fields.len(), ron.lines().count());
            let back = SimScenario::from_ron(&legacy)
                .unwrap_or_else(|e| panic!("seed {seed}, {case}: {e}\n{legacy}"));
            assert_eq!(back, sc, "seed {seed}, {case}");
        }
    }
}

#[test]
fn fields_may_come_in_any_order() {
    let sc = SimScenario::from_ron(EVERY_VARIANT).unwrap();
    let mut lines: Vec<&str> = EVERY_VARIANT.lines().collect();
    // The top-level fields in reverse, with `faults` (lines 16..=24) kept
    // as one block whose own fields are reversed too.
    let faults: Vec<&str> = lines.drain(16..=24).collect();
    let mut reordered = vec!["("];
    for line in lines[1..lines.len() - 1].iter().rev() {
        if is_field(line, "inject") {
            reordered.push(faults[0]);
            reordered.extend(faults[1..faults.len() - 1].iter().rev());
            reordered.push(faults[faults.len() - 1]);
        }
        reordered.push(line);
    }
    reordered.push(")");
    let text = reordered.join("\n");
    assert_ne!(text.trim(), EVERY_VARIANT.trim());
    assert_eq!(SimScenario::from_ron(&text), Ok(sc));
}

#[test]
fn malformed_files_are_errors_that_name_the_field_or_variant() {
    let ron = EVERY_VARIANT;
    // Unknown fields.
    refused(&ron.replacen("(\n", "(\n    colour: 3,\n", 1), &["colour"]);
    let dups = ron.replacen("        drops:", "        dups: [],\n        drops:", 1);
    refused(&dups, &["faults", "dups"]);
    // Repeated fields.
    refused(
        &ron.replacen("    dim:", "    dim: 3,\n    dim:", 1),
        &["dim"],
    );
    let twice = ron.replacen("        conns:", "        conns: [],\n        conns:", 1);
    refused(&twice, &["faults", "conns", "repeated"]);
    // Missing required fields, at the top and inside `faults`.
    refused(&without(ron, &["jitter_ms"]), &["jitter_ms", "missing"]);
    refused(
        &without(ron, &["crashes"]),
        &["faults", "crashes", "missing"],
    );
    // Unknown variants.
    refused(
        &set(ron, "aggregation", "Majority"),
        &["aggregation", "Majority"],
    );
    let bribe = "[(node: 3, attack: Bribe(amount: 2.0))]";
    refused(&set(ron, "byzantine", bribe), &["byzantine", "Bribe"]);
    let every = "[Every(from: 0, to: 1, k: 2)]";
    refused(&set(ron, "drops", every), &["drops", "Every"]);
    let forge = "Some(Forge(at_us: 1, server: 0))";
    refused(&set(ron, "inject", forge), &["inject", "Forge"]);
    let atlantis = "[(a: Atlantis, b: Paris, start_us: 0, end_us: 1)]";
    refused(
        &set(ron, "partitions", atlantis),
        &["partitions", "Atlantis"],
    );
    // Values of the wrong shape.
    refused(&set(ron, "seed", "-1"), &["seed", "-1"]);
    refused(&set(ron, "recovery", "yes"), &["recovery", "yes"]);
    refused(&set(ron, "codec", "Some(\"q7\")"), &["codec", "q7"]);
    refused(&set(ron, "targets", "(x: 1)"), &["targets", "list"]);
    // Text after the scenario.
    refused(&format!("{ron}()\n"), &["after"]);
}

#[test]
fn a_truncated_file_is_an_error() {
    let ron = EVERY_VARIANT;
    // Every cut short of the closing parenthesis fails, and a cut inside
    // the `faults` record names it.
    let start = ron.find("    faults:").unwrap() + "    faults".len();
    let inside_faults = start..ron.find("    ),").unwrap() + "    )".len();
    for cut in (0..ron.len() - 1).filter(|&cut| ron.is_char_boundary(cut)) {
        match SimScenario::from_ron(&ron[..cut]) {
            Ok(_) => panic!("accepted a file cut at byte {cut}"),
            Err(e) if inside_faults.contains(&cut) => {
                assert!(e.contains("faults"), "cut at byte {cut}: `{e}`")
            }
            Err(_) => {}
        }
    }
}

#[test]
fn a_nan_injection_probability_above_one_is_an_error() {
    let attack = "[(node: 6, attack: NanInject(prob: 2.0))]";
    let text = set(EVERY_VARIANT, "byzantine", attack);
    refused(&text, &["byzantine", "NanInject"]);
}

#[test]
fn per_client_lists_must_have_one_entry_per_client() {
    refused(&set(EVERY_VARIANT, "targets", "[0.5]"), &["targets"]);
    let delays = "[1, 2, 3, 4, 5]";
    refused(
        &set(EVERY_VARIANT, "train_delay_ms", delays),
        &["train_delay_ms"],
    );
    refused(
        &set(EVERY_VARIANT, "compute_mul", "[1000, 2000]"),
        &["compute_mul"],
    );
    refused(
        &set(EVERY_VARIANT, "compute_mul", "[1000, 0, 1000, 1000]"),
        &["compute_mul"],
    );
    // An empty tier list means every client runs at the neutral speed.
    assert!(SimScenario::from_ron(&set(EVERY_VARIANT, "compute_mul", "[]")).is_ok());
}

#[test]
fn node_ids_must_exist() {
    // 3 servers + 4 clients + 1 standby: node 8 is one past the last.
    let cases = [
        ("crashes", "[(node: 8, at_us: 1, restart_us: None)]"),
        ("conns", "[(a: 0, b: 8, start_us: 1, end_us: 2)]"),
        ("link_loss", "[(from: 8, to: 0, p: 0.5)]"),
        ("drops", "[NthOnLink(from: 0, to: 8, nth: 1)]"),
        ("avail", "[(node: 8, start_us: 1, end_us: 2)]"),
    ];
    for (field, value) in cases {
        refused(&set(EVERY_VARIANT, field, value), &[field, "node 8"]);
    }
}

#[test]
fn probabilities_must_lie_in_the_unit_interval() {
    refused(&set(EVERY_VARIANT, "loss_prob", "1.5"), &["loss_prob"]);
    refused(&set(EVERY_VARIANT, "loss_prob", "NaN"), &["loss_prob"]);
    let link = "[(from: 3, to: 0, p: -0.1)]";
    refused(&set(EVERY_VARIANT, "link_loss", link), &["link_loss"]);
}

#[test]
fn windows_must_end_after_they_start() {
    let cases = [
        ("conns", "[(a: 0, b: 6, start_us: 5, end_us: 5)]"),
        (
            "partitions",
            "[(a: Paris, b: Sydney, start_us: 9, end_us: 2)]",
        ),
        (
            "drops",
            "[LinkWindow(from: 1, to: 5, start_us: 7, end_us: 3)]",
        ),
        ("avail", "[(node: 4, start_us: 2, end_us: 1)]"),
    ];
    for (field, value) in cases {
        refused(&set(EVERY_VARIANT, field, value), &[field, "empty"]);
    }
}

#[test]
fn a_restart_must_come_after_its_crash() {
    let at = "[(node: 1, at_us: 4000000, restart_us: Some(4000000))]";
    refused(&set(EVERY_VARIANT, "crashes", at), &["crashes"]);
    let before = "[(node: 1, at_us: 4000000, restart_us: Some(10))]";
    refused(&set(EVERY_VARIANT, "crashes", before), &["crashes"]);
}

#[test]
fn leave_and_injection_servers_must_exist() {
    let leave = "[(server: 3, at_us: 1)]";
    refused(
        &set(EVERY_VARIANT, "leaves", leave),
        &["leaves", "server 3"],
    );
    let inject = "Some(DuplicateToken(at_us: 1, server: 3))";
    refused(
        &set(EVERY_VARIANT, "inject", inject),
        &["inject", "server 3"],
    );
    refused(&set(EVERY_VARIANT, "n_servers", "0"), &["n_servers"]);
}
