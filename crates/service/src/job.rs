//! Job specifications and lifecycle states.

use crate::json::Json;

/// What a submitted job asks for. Persisted as `job-<id>.spec.json` in the
//  state directory so a restarted daemon can re-enqueue unfinished jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Daemon-assigned id (monotonic across restarts).
    pub id: u64,
    /// Path to the `.lbrc` benchmark container to reduce.
    pub input: String,
    /// Input format of the container: `classfile` (default) or `stackvm`.
    pub format: String,
    /// Decompiler whose bugs the oracle preserves: `a`, `b`, `c`, `all`.
    pub decompiler: String,
    /// Reduction strategy: any name or alias in the pipeline's strategy
    /// registry (`logical`, the default, resolves to `logical/greedy`).
    /// Strategies whose capability flags mark them resumable get
    /// checkpoint/resume; every job shares the
    /// persistent probe cache.
    pub strategy: String,
    /// Queue priority, 0–255; higher pops first.
    pub priority: u8,
    /// Modeled cost of one tool invocation in seconds (default 33, the
    /// paper's measured decompile+recompile time).
    pub cost: f64,
    /// Speculative probe threads inside the job's GBR search (1 = off).
    pub probe_threads: usize,
    /// Emulated tool latency per fresh probe, microseconds.
    pub probe_latency_micros: u64,
    /// Where to write the reduced container (optional).
    pub output: Option<String>,
    /// Wall-clock deadline in seconds from job start; 0 = none. A job
    /// over its deadline is cancelled cooperatively (between probes).
    pub deadline_secs: f64,
}

impl JobSpec {
    /// Parses a spec from a `submit` request (or a persisted spec file).
    /// `id` comes from the daemon, not the document, unless present.
    pub fn from_json(j: &Json, fallback_id: u64) -> Result<JobSpec, String> {
        let input = j
            .str_field("input")
            .ok_or("submit: missing \"input\"")?
            .to_owned();
        let format = j.str_field("format").unwrap_or("classfile").to_owned();
        match format.as_str() {
            "classfile" | "stackvm" => {}
            other => return Err(format!("submit: unknown format {other:?}")),
        }
        let decompiler = j.str_field("decompiler").unwrap_or("a").to_owned();
        match decompiler.as_str() {
            "a" | "b" | "c" | "all" => {}
            other => return Err(format!("submit: unknown decompiler {other:?}")),
        }
        let strategy = j.str_field("strategy").unwrap_or("logical").to_owned();
        if !lbr_jreduce::known_strategy(&strategy) {
            return Err(format!("submit: unknown strategy {strategy:?}"));
        }
        let priority = j.u64_field("priority").unwrap_or(0).min(255) as u8;
        // Same default as the `reduce` CLI: the paper's ≈33 s tool run.
        let cost = j.f64_field("cost").unwrap_or(33.0);
        let probe_threads = j.u64_field("probe_threads").unwrap_or(1).max(1) as usize;
        let probe_latency_micros = j.u64_field("probe_latency_micros").unwrap_or(0);
        let output = j.str_field("output").map(str::to_owned);
        let deadline_secs = j.f64_field("deadline_secs").unwrap_or(0.0);
        Ok(JobSpec {
            id: j.u64_field("id").unwrap_or(fallback_id),
            input,
            format,
            decompiler,
            strategy,
            priority,
            cost,
            probe_threads,
            probe_latency_micros,
            output,
            deadline_secs,
        })
    }

    /// Renders the spec for persistence.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::count(self.id)),
            ("input", Json::str(&self.input)),
            ("format", Json::str(&self.format)),
            ("decompiler", Json::str(&self.decompiler)),
            ("strategy", Json::str(&self.strategy)),
            ("priority", Json::count(self.priority as u64)),
            ("cost", Json::Num(self.cost)),
            ("probe_threads", Json::count(self.probe_threads as u64)),
            (
                "probe_latency_micros",
                Json::count(self.probe_latency_micros),
            ),
            ("deadline_secs", Json::Num(self.deadline_secs)),
        ];
        if let Some(out) = &self.output {
            fields.push(("output", Json::str(out)));
        }
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the queue.
    Queued,
    /// A worker is reducing it.
    Running,
    /// Finished; its result file exists.
    Done,
    /// Failed; the error string is in the job record.
    Failed,
    /// Cancelled by request (or by its deadline).
    Cancelled,
}

impl JobPhase {
    /// Protocol name of the phase.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let spec = JobSpec {
            id: 7,
            input: "/tmp/bench.lbrc".into(),
            format: "stackvm".into(),
            decompiler: "b".into(),
            strategy: "logical".into(),
            priority: 9,
            cost: 33.0,
            probe_threads: 4,
            probe_latency_micros: 20_000,
            output: Some("/tmp/out.lbrc".into()),
            deadline_secs: 120.0,
        };
        let parsed = JobSpec::from_json(&spec.to_json(), 0).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn defaults_and_validation() {
        let j = Json::parse(r#"{"input":"x.lbrc"}"#).unwrap();
        let spec = JobSpec::from_json(&j, 3).unwrap();
        assert_eq!(spec.id, 3);
        assert_eq!(spec.format, "classfile");
        assert_eq!(spec.decompiler, "a");
        assert_eq!(spec.strategy, "logical");
        assert_eq!(spec.probe_threads, 1);
        assert!(JobSpec::from_json(
            &Json::parse(r#"{"input":"x","decompiler":"z"}"#).unwrap(),
            0
        )
        .is_err());
        assert!(
            JobSpec::from_json(&Json::parse(r#"{"input":"x","format":"wasm"}"#).unwrap(), 0)
                .is_err()
        );
        assert!(
            JobSpec::from_json(&Json::parse(r#"{"input":"x","strategy":"z"}"#).unwrap(), 0)
                .is_err()
        );
        // Registry names and historical aliases both validate.
        for name in [
            "hdd",
            "logical/natural-order",
            "logical/trace-guided",
            "ddmin",
            "lossy2",
        ] {
            let doc = Json::parse(&format!(r#"{{"input":"x","strategy":"{name}"}}"#)).unwrap();
            assert_eq!(JobSpec::from_json(&doc, 0).unwrap().strategy, name);
        }
        // The retired MSA ablations are unknown names now.
        for name in ["logical/greedy+min", "logical/dpll+min"] {
            let doc = Json::parse(&format!(r#"{{"input":"x","strategy":"{name}"}}"#)).unwrap();
            let err = JobSpec::from_json(&doc, 0).unwrap_err();
            assert!(err.contains("unknown strategy"), "{name}: {err}");
        }
        assert!(JobSpec::from_json(&Json::parse("{}").unwrap(), 0).is_err());
    }
}
