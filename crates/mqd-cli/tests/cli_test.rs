//! End-to-end tests of the `mqdiv` binary: spawn the real executable and
//! drive the full gen → match → diversify → stream → pack → unpack surface.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn mqdiv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mqdiv"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mqdiv_cli_tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_diversify_stream_pipeline() {
    let posts = tmp("pipeline_posts.tsv");
    let digest = tmp("pipeline_digest.tsv");

    let out = mqdiv()
        .args(["gen", "--labels", "2", "--rate", "20", "--minutes", "5"])
        .args(["--seed", "9", "--out", posts.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = mqdiv()
        .args(["diversify", "--input", posts.to_str().unwrap()])
        .args(["--lambda", "30000", "--algorithm", "greedy"])
        .args(["--out", digest.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("kept"), "summary missing: {stderr}");

    let n_posts = fs::read_to_string(&posts).unwrap().lines().count();
    let n_digest = fs::read_to_string(&digest).unwrap().lines().count();
    assert!(n_digest > 0 && n_digest < n_posts);

    let out = mqdiv()
        .args(["stream", "--input", posts.to_str().unwrap()])
        .args(["--lambda", "30000", "--tau", "5000", "--engine", "scan+"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let emitted = String::from_utf8_lossy(&out.stdout);
    for line in emitted.lines() {
        let delay: i64 = line.split('\t').nth(4).unwrap().parse().unwrap();
        assert!(delay <= 5000, "delay budget violated: {line}");
    }
}

#[test]
fn pack_unpack_round_trip() {
    let posts = tmp("pack_posts.tsv");
    let packed = tmp("pack_posts.mqdl");
    let unpacked = tmp("pack_posts_rt.tsv");

    mqdiv()
        .args(["gen", "--labels", "3", "--rate", "10", "--minutes", "3"])
        .args(["--out", posts.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(mqdiv()
        .args(["pack", "--input", posts.to_str().unwrap()])
        .args(["--out", packed.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(mqdiv()
        .args(["unpack", "--input", packed.to_str().unwrap()])
        .args(["--out", unpacked.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        fs::read_to_string(&posts).unwrap(),
        fs::read_to_string(&unpacked).unwrap()
    );
    assert!(
        fs::metadata(&packed).unwrap().len() < fs::metadata(&posts).unwrap().len(),
        "binary log should be smaller"
    );
}

#[test]
fn match_command_extracts_labels() {
    let texts = tmp("match_texts.tsv");
    fs::write(
        &texts,
        "0\t100\tobama speaks to the senate\n1\t200\tnothing to see here\n2\t300\tgolf masters update\n",
    )
    .unwrap();
    let out = mqdiv()
        .args(["match", "--input", texts.to_str().unwrap()])
        .args(["--query", "obama,senate", "--query", "golf"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let rows = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = rows.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("0\t100\t0"));
    assert!(lines[1].starts_with("2\t300\t1"));
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = mqdiv().args(["diversify"]).output().unwrap(); // missing --lambda
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--lambda"));

    let out = mqdiv().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = mqdiv()
        .args(["unpack", "--input", "/nonexistent/file.mqdl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_lists_subcommands() {
    let out = mqdiv().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in ["gen", "match", "diversify", "stream", "pack", "unpack"] {
        assert!(text.contains(sub), "help missing {sub}");
    }
}

#[test]
fn ingest_query_store_workflow() {
    let store = tmp("store_dir");
    let _ = fs::remove_dir_all(&store);
    let posts_a = tmp("store_a.tsv");
    let posts_b = tmp("store_b.tsv");
    fs::write(&posts_a, "0\t100\t0\n1\t200\t0,1\n").unwrap();
    fs::write(&posts_b, "2\t5000\t1\n3\t5100\t0\n").unwrap();

    for p in [&posts_a, &posts_b] {
        assert!(mqdiv()
            .args(["ingest", "--store", store.to_str().unwrap()])
            .args(["--input", p.to_str().unwrap()])
            .status()
            .unwrap()
            .success());
    }

    // Range query touches only the second segment.
    let out = mqdiv()
        .args(["query", "--store", store.to_str().unwrap()])
        .args(["--from", "4000", "--to", "6000"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 2);
    assert!(text.contains("2\t5000"));

    // Full scan with on-the-fly diversification compresses the burst.
    let out = mqdiv()
        .args(["query", "--store", store.to_str().unwrap()])
        .args(["--lambda", "10000"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().count() < 4, "diversified scan: {text}");
    let _ = fs::remove_dir_all(&store);
}

/// The `serve` and `route` start-up lines report the worker count the pool
/// really runs with — the number STATS carries as `"threads"` — also when
/// the requested count is below the pool's floor.
#[test]
fn serve_startup_line_matches_stats_threads() {
    // `route` sizes its pool through the same connection runtime; its
    // backend is unreachable on purpose (backends are dialed lazily, and
    // STATS and DRAIN both tolerate a dead one).
    let fronts: [(&[&str], &str); 2] = [
        (&["serve"], "serving with "),
        (
            &["route", "--backends", "127.0.0.1:1", "--shards", "1"],
            "routing with ",
        ),
    ];
    for ((front, prefix), threads) in fronts
        .iter()
        .flat_map(|f| [None, Some("1"), Some("6")].map(|t| (f, t)))
    {
        let mut cmd = mqdiv();
        cmd.args(*front).args(["--addr", "127.0.0.1:0"]);
        if let Some(n) = threads {
            cmd.args(["--threads", n]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut announce = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut announce)
            .unwrap();
        let addr = announce
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line: {announce:?}"))
            .trim()
            .to_string();
        // Kept open until the server exits, so later log lines never hit
        // a closed pipe.
        let mut log = BufReader::new(child.stderr.take().unwrap());
        let mut startup = String::new();
        log.read_line(&mut startup).unwrap();
        let logged: usize = startup
            .strip_prefix(*prefix)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected start-up line: {startup:?}"));

        let mut client = mqdiv()
            .args(["client", "--addr", &addr, "--check"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        client
            .stdin
            .take()
            .unwrap()
            .write_all(b"STATS\nDRAIN\n")
            .unwrap();
        let out = client.wait_with_output().unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        let stats_threads: usize = text
            .split("\"threads\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no threads field in STATS: {text}"));
        assert_eq!(
            logged, stats_threads,
            "{front:?} --threads {threads:?}: {startup:?}"
        );
        assert!(child.wait().unwrap().success());
    }
}
