//! A persisted set's universe sizes an allocation, so both state formats
//! that store sets — the oracle cache and job checkpoints — reject one
//! above `MAX_UNIVERSE` as bad data. Without the ceiling a single corrupt
//! number aborts the process on a failed multi-terabyte allocation: at
//! startup for the cache, on a worker (taking the daemon down) for a
//! checkpoint.

use lbr_classfile::write_program;
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{run_reduction_with, RunOptions};
use lbr_service::{
    load_checkpoint, namespace_digest, Client, Daemon, DaemonConfig, Json, PersistentOracleCache,
    MAX_UNIVERSE,
};
use lbr_workload::{generate, WorkloadConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbr-bound-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A `v2` cache file holding `lines` as one correctly committed batch.
fn committed_log(lines: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in lines.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "lbr-oracle-cache v2\n{lines}commit {} {h:016x}\n",
        lines.lines().count()
    )
}

#[test]
fn a_cache_line_above_the_universe_ceiling_is_invalid_data() {
    let dir = scratch("cache");
    let path = dir.join("oracle.cache");
    let huge = "0000000000000001 99999999999999 1 5 -\n";
    let above = format!("0000000000000001 {} 1 5 -\n", MAX_UNIVERSE + 1);
    for text in [
        format!("lbr-oracle-cache v1\n{huge}"),
        committed_log(huge),
        committed_log(&above),
    ] {
        std::fs::write(&path, &text).unwrap();
        match PersistentOracleCache::open(&path) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{text}: {e}"),
            Ok(_) => panic!("{text}: a universe above the ceiling loaded"),
        }
    }
    // The ceiling itself is a valid universe.
    let at = format!("0000000000000001 {MAX_UNIVERSE} 1 5 -\n");
    std::fs::write(&path, committed_log(&at)).unwrap();
    assert_eq!(PersistentOracleCache::open(&path).unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint naming a huge universe is discarded like a torn one: the
/// job restarts from scratch and converges to the in-process result. So
/// is a checkpoint taken on another input — the job's input file was
/// replaced between a kill and the restart — whose sets would otherwise
/// index past the new model's variables on the worker. A version 1 file
/// carries no input binding, so it loads; the search then finds that it
/// does not fit, and the job restarts all the same.
#[test]
fn a_checkpoint_above_the_universe_ceiling_is_discarded_and_the_job_restarts() {
    let dir = scratch("ckpt");
    let program = |seed, classes| {
        generate(&WorkloadConfig {
            seed,
            classes,
            interfaces: 6,
            plant: BugSet::decompiler_a().kinds().to_vec(),
            ..WorkloadConfig::default()
        })
    };
    let start = |state: &Path| {
        let daemon = Daemon::start(DaemonConfig::new(state, 1)).expect("start daemon");
        let client = Client::connect(daemon.local_addr().to_string());
        let handle = std::thread::spawn(move || daemon.run());
        assert!(
            client.wait_ready(Duration::from_secs(5)),
            "daemon never came up"
        );
        (client, handle)
    };
    let input = dir.join("input.lbrc");
    let out = dir.join("out.lbrc");
    for case in ["huge universe", "another input", "v1 of another input"] {
        // A fresh state directory per case: a warm cache would finish the
        // job before it could be interrupted.
        let state = dir.join(format!("state-{}", case.replace(' ', "-")));
        let original = program(29, 18);
        std::fs::write(&input, write_program(&original)).unwrap();
        let _ = std::fs::remove_file(&out);
        let (client, handle) = start(&state);
        let id = client
            .submit(&Json::obj_from(vec![
                ("input", Json::str(input.display().to_string())),
                ("decompiler", Json::str("a")),
                ("output", Json::str(out.display().to_string())),
                ("probe_latency_micros", Json::count(1_500)),
            ]))
            .unwrap();
        let ckpt = state.join(format!("job-{id}.ckpt"));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ckpt.exists() {
            assert!(Instant::now() < deadline, "no checkpoint appeared");
            std::thread::sleep(Duration::from_millis(5));
        }
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        assert!(!out.exists(), "the interrupted job must not have finished");

        let reduced = if case != "huge universe" {
            // The checkpoint stays intact; the input under it changes to
            // a program with a different variable count.
            let replacement = program(31, 11);
            let bytes = write_program(&replacement);
            std::fs::write(&input, &bytes).unwrap();
            let digest = namespace_digest("a", &bytes);
            if case == "v1 of another input" {
                let text = std::fs::read_to_string(&ckpt).unwrap();
                let Ok(Json::Obj(mut fields)) = Json::parse(&text) else {
                    panic!("checkpoint is not a JSON object: {text}");
                };
                fields.remove("input");
                fields.remove("gap");
                fields.insert("version".to_owned(), Json::count(1));
                std::fs::write(&ckpt, Json::Obj(fields).render()).unwrap();
                assert!(load_checkpoint(&ckpt, digest).unwrap().is_some());
            } else {
                let err = load_checkpoint(&ckpt, digest)
                    .expect_err("another input's checkpoint must not load");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            }
            replacement
        } else {
            std::fs::write(
                &ckpt,
                r#"{"version":1,"iterations":0,"learned":[],
                    "search_space":{"universe":99999999999999,"members":[]}}"#,
            )
            .unwrap();
            let err = load_checkpoint(&ckpt, 0).expect_err("a huge universe must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            original
        };
        let oracle = DecompilerOracle::new(&reduced, BugSet::decompiler_a());
        let reference = run_reduction_with(
            &reduced,
            &oracle,
            "logical/greedy",
            33.0,
            &RunOptions::default(),
        )
        .expect("reference reduction");

        let (client, handle) = start(&state);
        let result = client.wait_result(id).unwrap();
        assert_eq!(result.str_field("status"), Some("done"), "{case}");
        assert_eq!(result.bool_field("resumed"), Some(false), "{case}");
        assert_eq!(
            std::fs::read(&out).unwrap(),
            write_program(&reference.reduced),
            "{case}"
        );
        assert_eq!(
            result.u64_field("predicate_calls"),
            Some(reference.predicate_calls),
            "{case}"
        );
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
