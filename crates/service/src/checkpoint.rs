//! Serializing [`GbrCheckpoint`]s to JSON files.
//!
//! The checkpoint format (see DESIGN.md §Service architecture) is a small
//! JSON document; `VarSet`s are stored as `{ "universe": N, "members":
//! [indices…] }`, the only stable public view of a set. A checkpoint file
//! is bound to the digest of the input it was taken on, so a job whose
//! input file changed between runs restarts instead of resuming a search
//! over another input's variables. Checkpoints go
//! through [`atomic_write`](crate::fsio::atomic_write), so a killed writer
//! leaves either the previous checkpoint or the new one — a resumed job
//! merely restarts from an earlier iteration in the worst case.

use crate::fsio::atomic_write_str;
use crate::json::Json;
use lbr_core::GbrCheckpoint;
use lbr_logic::{Var, VarSet};
use std::io;
use std::path::Path;

/// Current checkpoint format version. Version 2 added the gallop `gap`
/// and the `input` binding; version 1 documents still load (gap 1,
/// unbound).
const VERSION: f64 = 2.0;

/// Renders a `VarSet` as `{ "universe": N, "members": [..] }`.
pub fn varset_to_json(set: &VarSet) -> Json {
    Json::obj([
        ("universe", Json::num(set.universe() as f64)),
        (
            "members",
            Json::Arr(set.iter().map(|v| Json::num(v.index() as f64)).collect()),
        ),
    ])
}

/// Largest universe a persisted set may declare: 2^24 variables, a 2 MiB
/// bitset. Real models have hundreds of variables; the ceiling exists so
/// that a corrupt number in a state file is rejected as bad data instead
/// of sizing an allocation that aborts the daemon.
pub const MAX_UNIVERSE: usize = 1 << 24;

/// Rebuilds a persisted set from its universe and member indices. Both
/// state formats (checkpoints and the oracle cache) come through here, so
/// neither can allocate for a universe above [`MAX_UNIVERSE`] or accept a
/// member outside its universe.
pub(crate) fn persisted_varset(
    universe: u64,
    members: impl IntoIterator<Item = u64>,
) -> Result<VarSet, String> {
    if universe > MAX_UNIVERSE as u64 {
        return Err(format!(
            "varset: universe {universe} above the {MAX_UNIVERSE} ceiling"
        ));
    }
    let vars = members
        .into_iter()
        .map(|idx| {
            if idx < universe {
                Ok(Var::new(idx as u32))
            } else {
                Err(format!("varset: member {idx} outside universe {universe}"))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(VarSet::from_iter_with_universe(universe as usize, vars))
}

/// Parses a `VarSet` rendered by [`varset_to_json`].
pub fn varset_from_json(j: &Json) -> Result<VarSet, String> {
    let universe = j.u64_field("universe").ok_or("varset: missing universe")?;
    let members = j
        .get("members")
        .and_then(Json::as_arr)
        .ok_or("varset: missing members")?
        .iter()
        .map(|m| m.as_u64().ok_or("varset: bad member"))
        .collect::<Result<Vec<_>, _>>()?;
    persisted_varset(universe, members)
}

/// Renders a checkpoint as its JSON document.
pub fn checkpoint_to_json(ck: &GbrCheckpoint) -> Json {
    let mut fields = vec![
        ("version", Json::Num(VERSION)),
        ("iterations", Json::num(ck.iterations as f64)),
        (
            "learned",
            Json::Arr(ck.learned.iter().map(varset_to_json).collect()),
        ),
        ("search_space", varset_to_json(&ck.search_space)),
        ("gap", Json::num(ck.gap as f64)),
    ];
    if let Some(best) = &ck.best {
        fields.push(("best", varset_to_json(best)));
    }
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Parses a checkpoint document.
pub fn checkpoint_from_json(j: &Json) -> Result<GbrCheckpoint, String> {
    let gap = match j.f64_field("version") {
        Some(1.0) => 1,
        Some(v) if v == VERSION => j.u64_field("gap").ok_or("checkpoint: missing gap")? as usize,
        v => return Err(format!("checkpoint: unsupported version {v:?}")),
    };
    let iterations = j
        .u64_field("iterations")
        .ok_or("checkpoint: missing iterations")? as usize;
    let learned = j
        .get("learned")
        .and_then(Json::as_arr)
        .ok_or("checkpoint: missing learned")?
        .iter()
        .map(varset_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let search_space = varset_from_json(
        j.get("search_space")
            .ok_or("checkpoint: missing search_space")?,
    )?;
    let best = j.get("best").map(varset_from_json).transpose()?;
    if learned.len() != iterations {
        return Err(format!(
            "checkpoint: {} learned sets but {iterations} iterations",
            learned.len()
        ));
    }
    Ok(GbrCheckpoint {
        iterations,
        learned,
        search_space,
        best,
        gap,
    })
}

/// Atomically writes a checkpoint file taken on the input whose digest is
/// `input`.
pub fn save_checkpoint(path: &Path, ck: &GbrCheckpoint, input: u64) -> io::Result<()> {
    let mut doc = checkpoint_to_json(ck);
    if let Json::Obj(fields) = &mut doc {
        fields.insert("input".to_owned(), Json::str(format!("{input:016x}")));
    }
    atomic_write_str(path, &doc.render())
}

/// Loads a checkpoint file for the input whose digest is `input`;
/// `Ok(None)` when none exists, an error when one exists but does not
/// parse (atomic writes make that a real fault, not a torn write) or was
/// taken on another input. A version 1 file carries no binding and loads.
pub fn load_checkpoint(path: &Path, input: u64) -> io::Result<Option<GbrCheckpoint>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bound = format!("{input:016x}");
    Json::parse(&text)
        .and_then(|j| match j.str_field("input") {
            Some(other) if other != bound => {
                Err(format!("checkpoint of input {other}, not {bound}"))
            }
            _ => checkpoint_from_json(&j),
        })
        .map(Some)
        .map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(universe: usize, members: &[u32]) -> VarSet {
        VarSet::from_iter_with_universe(universe, members.iter().copied().map(Var::new))
    }

    #[test]
    fn round_trips_via_file() {
        let ck = GbrCheckpoint {
            iterations: 2,
            learned: vec![set(10, &[1, 4]), set(10, &[7])],
            search_space: set(10, &[1, 2, 4, 7, 9]),
            best: Some(set(10, &[1, 4, 7])),
            gap: 3,
        };
        let dir = std::env::temp_dir().join(format!("lbr-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job-1.ckpt");
        save_checkpoint(&path, &ck, 0xfeed).unwrap();
        let loaded = load_checkpoint(&path, 0xfeed)
            .unwrap()
            .expect("checkpoint exists");
        assert_eq!(loaded, ck);
        assert_eq!(load_checkpoint(&dir.join("nope"), 0xfeed).unwrap(), None);
        // Another input's checkpoint does not load.
        let err = load_checkpoint(&path, 0xbeef).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_documents_load_with_gap_1() {
        let v1 = r#"{"version":1,"iterations":1,"learned":[{"universe":4,"members":[2]}],
            "search_space":{"universe":4,"members":[1,2]}}"#;
        let ck = checkpoint_from_json(&Json::parse(v1).unwrap()).unwrap();
        assert_eq!(ck.gap, 1);
        assert_eq!(ck.learned, vec![set(4, &[2])]);
        assert_eq!(ck.best, None);
        assert!(checkpoint_from_json(&Json::parse(r#"{"version":3}"#).unwrap()).is_err());
    }

    #[test]
    fn no_best_round_trips() {
        let ck = GbrCheckpoint {
            iterations: 0,
            learned: vec![],
            search_space: set(4, &[0, 1, 2, 3]),
            best: None,
            gap: 1,
        };
        let j = checkpoint_to_json(&ck);
        assert_eq!(checkpoint_from_json(&j).unwrap(), ck);
    }

    #[test]
    fn rejects_inconsistent_documents() {
        let ck = GbrCheckpoint {
            iterations: 3, // != learned.len()
            learned: vec![set(4, &[1])],
            search_space: set(4, &[1, 2]),
            best: None,
            gap: 1,
        };
        assert!(checkpoint_from_json(&checkpoint_to_json(&ck)).is_err());
        assert!(
            varset_from_json(&Json::parse(r#"{"universe":2,"members":[5]}"#).unwrap()).is_err()
        );
        let ceiling = format!(r#"{{"universe":{},"members":[]}}"#, MAX_UNIVERSE);
        assert!(varset_from_json(&Json::parse(&ceiling).unwrap()).is_ok());
        let above = format!(r#"{{"universe":{},"members":[]}}"#, MAX_UNIVERSE + 1);
        assert!(varset_from_json(&Json::parse(&above).unwrap()).is_err());
    }
}
