//! End-to-end CLI tests for `tracetool`: record → verify round trip, the
//! usage listing, the timeline golden output, identical analysis output on
//! flat and packed input, the diff exit-code contract (0 clean / 1
//! regression / 2 corrupt-or-usage), and exit codes for help / unknown
//! subcommands.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tracetool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("spawn tracetool")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tracetool-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn record_then_verify_exits_zero_on_a_clean_trace() {
    let etl = tmp("clean.etl");
    let rec = tracetool(&["record", "vlc", "1", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");

    let ver = tracetool(&["verify", etl.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&ver.stdout);
    assert!(ver.status.success(), "verify failed: {ver:?}");
    assert!(stdout.contains("0 errors, 0 warnings"), "{stdout}");
    assert!(stdout.contains("happens-before:"), "{stdout}");
    assert!(stdout.contains("0 findings"), "{stdout}");
    let _ = std::fs::remove_file(&etl);
}

#[test]
fn help_lists_every_subcommand_on_stdout() {
    let out = tracetool(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "record",
        "info",
        "summary",
        "tlp",
        "latency",
        "bottlenecks",
        "critical-path",
        "verify",
        "timeline",
        "diff",
        "export-cpu",
        "export-gpu",
        "export-chrome",
        "pack",
        "unpack",
        "synth",
    ] {
        assert!(stdout.contains(sub), "usage is missing `{sub}`:\n{stdout}");
    }
    // The exit-code contract is part of the help text.
    assert!(
        stdout.contains("exit codes: 0 clean, 1 findings"),
        "{stdout}"
    );
}

#[test]
fn pack_shrinks_at_least_3x_and_round_trips_through_verify() {
    let etl = tmp("pack-src.etl");
    let packed = tmp("packed.etl");
    let unpacked = tmp("unpacked.etl");
    let rec = tracetool(&["record", "vlc", "2", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");

    let pack = tracetool(&["pack", etl.to_str().unwrap(), packed.to_str().unwrap()]);
    assert!(pack.status.success(), "pack failed: {pack:?}");
    let before = std::fs::metadata(&etl).unwrap().len();
    let after = std::fs::metadata(&packed).unwrap().len();
    assert!(
        after * 3 <= before,
        "pack must shrink >=3x: {before} -> {after} bytes"
    );

    // The packed trace is a first-class citizen: every reader sniffs the
    // magic, so verify works on it directly…
    let ver = tracetool(&["verify", packed.to_str().unwrap()]);
    assert!(ver.status.success(), "verify on packed failed: {ver:?}");

    // …and unpack regenerates a flat v2 file identical to the original.
    let unpack = tracetool(&[
        "unpack",
        packed.to_str().unwrap(),
        unpacked.to_str().unwrap(),
    ]);
    assert!(unpack.status.success(), "unpack failed: {unpack:?}");
    assert_eq!(
        std::fs::read(&etl).unwrap(),
        std::fs::read(&unpacked).unwrap(),
        "pack|unpack must reproduce the v2 file byte for byte"
    );
    let ver = tracetool(&["verify", unpacked.to_str().unwrap()]);
    assert!(ver.status.success(), "verify on unpacked failed: {ver:?}");

    for p in [&etl, &packed, &unpacked] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn info_summarizes_both_container_generations() {
    let etl = tmp("info-src.etl");
    let packed = tmp("info-packed.etl");
    let rec = tracetool(&["record", "vlc", "2", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");
    let pack = tracetool(&["pack", etl.to_str().unwrap(), packed.to_str().unwrap()]);
    assert!(pack.status.success(), "pack failed: {pack:?}");

    let flat = tracetool(&["info", etl.to_str().unwrap()]);
    assert!(flat.status.success(), "info on flat failed: {flat:?}");
    let flat_out = String::from_utf8_lossy(&flat.stdout);
    assert!(flat_out.contains("SETL v2 (flat)"), "{flat_out}");
    assert!(flat_out.contains("records by type:"), "{flat_out}");
    assert!(flat_out.contains("CSwitches per CPU:"), "{flat_out}");
    assert!(
        flat_out.contains("none (flat container)"),
        "flat traces have no string table: {flat_out}"
    );

    let compact = tracetool(&["info", packed.to_str().unwrap()]);
    assert!(
        compact.status.success(),
        "info on packed failed: {compact:?}"
    );
    let compact_out = String::from_utf8_lossy(&compact.stdout);
    assert!(
        compact_out.contains("SETL3 r2 (compact, blocked)"),
        "{compact_out}"
    );
    assert!(compact_out.contains("string table  :"), "{compact_out}");

    // Same trace, so everything below the container line must agree.
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("events"))
            .take_while(|l| !l.starts_with("string table"))
            .map(String::from)
            .collect::<Vec<_>>()
    };
    assert_eq!(tail(&flat_out), tail(&compact_out));

    // A corrupt compact trace is rejected, not summarized: checksums are
    // enforced on the streaming path too.
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    // lint:allow(fs-write): deliberately planting a corrupt temp trace.
    std::fs::write(&packed, &bytes).unwrap();
    let bad = tracetool(&["info", packed.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(2), "corrupt trace must be rejected");

    for p in [&etl, &packed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn timeline_matches_the_committed_golden_output() {
    let etl = tmp("timeline.etl");
    let rec = tracetool(&["record", "vlc", "2", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");

    // Default bucket count, text renderer: must reproduce the committed
    // golden byte for byte (the simulation is seeded and deterministic).
    let out = tracetool(&["timeline", etl.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/timeline_vlc.txt");
    assert_eq!(stdout, golden, "timeline output drifted from the golden");

    // CSV and JSON renderers agree on the headline numbers.
    let csv = tracetool(&["timeline", etl.to_str().unwrap(), "--csv"]);
    assert!(csv.status.success());
    let csv_out = String::from_utf8_lossy(&csv.stdout);
    assert!(csv_out.starts_with("bucket,start_ns,end_ns"), "{csv_out}");
    assert_eq!(csv_out.lines().count(), 25, "header + 24 buckets");

    // Bad arguments are usage errors.
    let bad = tracetool(&["timeline", etl.to_str().unwrap(), "--buckets", "0"]);
    assert_eq!(bad.status.code(), Some(2));

    // A corrupt compact trace is rejected with exit 2: the streaming fold
    // enforces checksums like every other reader.
    let packed = tmp("timeline-packed.etl");
    let pack = tracetool(&["pack", etl.to_str().unwrap(), packed.to_str().unwrap()]);
    assert!(pack.status.success(), "pack failed: {pack:?}");
    let ok = tracetool(&["timeline", packed.to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0), "v3 streams through the fold");
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    // lint:allow(fs-write): deliberately planting a corrupt temp trace.
    std::fs::write(&packed, &bytes).unwrap();
    let corrupt = tracetool(&["timeline", packed.to_str().unwrap()]);
    assert_eq!(corrupt.status.code(), Some(2), "corrupt trace must exit 2");

    for p in [&etl, &packed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn diff_exit_codes_pin_the_regression_contract() {
    let etl = tmp("diff.etl");
    let rec = tracetool(&["record", "vlc", "1", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");

    // Identical inputs: exit 0, verdict ok.
    let same = tracetool(&["diff", etl.to_str().unwrap(), etl.to_str().unwrap()]);
    assert_eq!(same.status.code(), Some(0), "{same:?}");
    let stdout = String::from_utf8_lossy(&same.stdout);
    assert!(stdout.contains("verdict       : ok"), "{stdout}");

    // Inject a synthetic regression into a registry snapshot: the drifted
    // metric must be named and the exit code must be 1.
    let base = tmp("diff-base.prom");
    let cur = tmp("diff-cur.prom");
    // lint:allow(fs-write): temp fixture files for the subprocess under test.
    std::fs::write(&base, "timeline_tlp_mean 2.0\nsched_switches_total 100\n").unwrap();
    // lint:allow(fs-write): temp fixture files for the subprocess under test.
    std::fs::write(&cur, "timeline_tlp_mean 1.2\nsched_switches_total 100\n").unwrap();
    let reg = tracetool(&["diff", base.to_str().unwrap(), cur.to_str().unwrap()]);
    assert_eq!(reg.status.code(), Some(1), "{reg:?}");
    let stdout = String::from_utf8_lossy(&reg.stdout);
    assert!(stdout.contains("REGRESSED     : 1"), "{stdout}");
    assert!(stdout.contains("timeline_tlp_mean"), "{stdout}");
    assert!(stdout.contains("verdict       : REGRESSION"), "{stdout}");

    // A wider threshold lets the same drift pass.
    let ok = tracetool(&[
        "diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--threshold",
        "50",
    ]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");

    // Trace vs its own registry-equivalent: a trace operand folds through
    // the timeline, so diffing a trace against itself is clean too.
    // Missing files are usage errors (exit 2).
    let gone = tracetool(&["diff", etl.to_str().unwrap(), "/no/such/file.prom"]);
    assert_eq!(gone.status.code(), Some(2), "{gone:?}");

    for p in [&etl, &base, &cur] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn analysis_subcommands_agree_on_flat_and_packed_input() {
    let etl = tmp("forms.etl");
    let packed = tmp("forms-packed.etl");
    let corrupt = tmp("forms-corrupt.etl");
    let rec = tracetool(&["record", "vlc", "2", etl.to_str().unwrap()]);
    assert!(rec.status.success(), "record failed: {rec:?}");
    let pack = tracetool(&["pack", etl.to_str().unwrap(), packed.to_str().unwrap()]);
    assert!(pack.status.success(), "pack failed: {pack:?}");
    // One flipped record byte in the revision-2 file: its block hash must
    // catch it, never a fall-through to the legacy decoder.
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    // lint:allow(fs-write): deliberately planting a corrupt temp trace.
    std::fs::write(&corrupt, &bytes).unwrap();

    // The flat v2 file is re-encoded on load; the packed file is read in
    // place. Every analysis subcommand must render the same bytes on both.
    for (sub, prefix) in [
        ("verify", None),
        ("tlp", Some("vlc")),
        ("latency", Some("vlc")),
        ("bottlenecks", Some("vlc")),
        ("critical-path", Some("vlc")),
        ("timeline", None),
    ] {
        let run = |path: &PathBuf| {
            let mut argv = vec![sub, path.to_str().unwrap()];
            argv.extend(prefix);
            tracetool(&argv)
        };
        let flat = run(&etl);
        assert_eq!(flat.status.code(), Some(0), "{sub} on v2: {flat:?}");
        let v3 = run(&packed);
        assert_eq!(v3.status.code(), Some(0), "{sub} on v3: {v3:?}");
        assert_eq!(flat.stdout, v3.stdout, "`{sub}` differs between v2 and v3");
        let bad = run(&corrupt);
        assert_eq!(bad.status.code(), Some(2), "{sub} on corrupt v3: {bad:?}");
    }

    for p in [&etl, &packed, &corrupt] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn synth_writes_a_verify_clean_v3_stream_of_the_exact_size() {
    let out = tmp("synth.etl");
    let gen = tracetool(&["synth", "100000", out.to_str().unwrap()]);
    assert!(gen.status.success(), "synth failed: {gen:?}");
    // The generator rounds the request up to whole handoff rounds and
    // reports the exact count it wrote (status goes to stderr, like
    // `record`).
    let status_line = String::from_utf8_lossy(&gen.stderr);
    let written: u64 = status_line
        .split(" events")
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("synth must report its event count: {status_line}"));
    assert!(written >= 100_000, "{status_line}");

    let info = tracetool(&["info", out.to_str().unwrap()]);
    assert!(info.status.success(), "{info:?}");
    let info_out = String::from_utf8_lossy(&info.stdout);
    assert!(
        info_out.contains("SETL3 r2 (compact, blocked)"),
        "synth must emit the blocked container: {info_out}"
    );
    assert!(info_out.contains(&written.to_string()), "{info_out}");

    // The generated trace is clean under full verification.
    let ver = tracetool(&["verify", out.to_str().unwrap()]);
    assert_eq!(ver.status.code(), Some(0), "{ver:?}");

    // Zero or garbage counts are usage errors.
    let zero = tracetool(&["synth", "0", out.to_str().unwrap()]);
    assert_eq!(zero.status.code(), Some(2), "{zero:?}");

    let _ = std::fs::remove_file(&out);
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = tracetool(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand `frobnicate`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: tracetool"), "{stderr}");
}

#[test]
fn missing_subcommand_exits_nonzero() {
    let out = tracetool(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing subcommand"), "{stderr}");
}
