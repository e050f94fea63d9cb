//! Correctness of every measured cell: the committed reference, the
//! model's own invariants, and agreement between repeated runs.

use std::collections::HashMap;

use redsoc_bench::json::Json;

use crate::workload::{CellRun, CellSpec, Outcome, Workload};

/// A workload's reference outcomes, keyed `bench/CORE/mode`.
pub struct Reference {
    /// The `--seed` the reference holds for; `None` when the workload's
    /// results do not depend on the seed.
    pub seed: Option<u64>,
    pub cells: HashMap<String, Outcome>,
}

fn source(w: Workload) -> &'static str {
    match w {
        Workload::MlWindow => include_str!("../ref/ml-window.json"),
        Workload::SpecMemory => include_str!("../ref/spec-memory.json"),
        Workload::SweepIsolated => include_str!("../ref/sweep-isolated.json"),
    }
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("reference cell lacks `{key}`"))
}

impl Reference {
    /// The reference compiled into the benchmark for `w`.
    pub fn load(w: Workload) -> Result<Reference, String> {
        let doc = Json::parse(source(w)).map_err(|e| format!("{} reference: {e}", w.name()))?;
        let seed = doc.get("seed").and_then(Json::as_num).map(|n| n as u64);
        let mut cells = HashMap::new();
        for c in doc.get("cells").and_then(Json::as_arr).unwrap_or_default() {
            let key = c
                .get("key")
                .and_then(Json::as_str)
                .ok_or("reference cell lacks `key`")?;
            let stalls = match c.get("stalls").and_then(Json::as_arr) {
                Some(s) if s.len() == 10 => {
                    let mut out = [0u64; 10];
                    for (o, v) in out.iter_mut().zip(s) {
                        *o = v.as_num().ok_or("non-numeric stall")? as u64;
                    }
                    Some(out)
                }
                Some(_) => return Err(format!("{key}: stalls must list 10 causes")),
                None => None,
            };
            let outcome = Outcome {
                cycles: u64_field(c, "cycles")?,
                committed: u64_field(c, "committed")?,
                stalls,
            };
            cells.insert(key.to_string(), outcome);
        }
        Ok(Reference { seed, cells })
    }
}

/// Per-cell verdicts over a whole run.
pub struct Checker {
    /// Reference outcome per cell, when the run's seed has one.
    expected: Vec<Option<Outcome>>,
    /// Trace length per cell: what it must commit.
    trace_len: Vec<u64>,
    /// The first outcome seen per cell; every later run must repeat it.
    first: Vec<Option<Outcome>>,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    keys: Vec<String>,
}

impl Checker {
    pub fn new(cells: &[CellSpec], reference: Option<&Reference>, trace_len: Vec<u64>) -> Checker {
        let keys: Vec<String> = cells.iter().map(CellSpec::key).collect();
        Checker {
            expected: keys
                .iter()
                .map(|k| reference.and_then(|r| r.cells.get(k).copied()))
                .collect(),
            trace_len,
            first: vec![None; cells.len()],
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            keys,
        }
    }

    /// Cells that have a reference outcome.
    pub fn referenced(&self) -> usize {
        self.expected.iter().flatten().count()
    }

    /// The planted reference fault: one cell's expected cycles are off
    /// by one, so every run of it must count as failed.
    pub fn perturb(&mut self) {
        if let Some(e) = self.expected.iter_mut().flatten().next() {
            e.cycles += 1;
        }
    }

    /// Check one measured cell run; `extra` is a failure found by the
    /// caller (a journal round trip that lost or changed the cell).
    pub fn check(&mut self, run: &CellRun, extra: bool) {
        self.attempted += 1;
        let i = run.cell;
        let verdict = match run.outcome {
            None => Err("did not complete ok".to_string()),
            Some(_) if extra => Err("journal resume did not restore it unchanged".into()),
            Some(o) => self.judge(i, o),
        };
        if let Err(why) = verdict {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(format!("{}: {why}", self.keys[i]));
            }
        }
    }

    fn judge(&mut self, i: usize, o: Outcome) -> Result<(), String> {
        if let Some(stalls) = o.stalls {
            let sum: u64 = stalls.iter().sum();
            if sum != o.cycles {
                return Err(format!("stalls sum to {sum}, cycles are {}", o.cycles));
            }
        }
        if o.committed != self.trace_len[i] {
            return Err(format!(
                "committed {} of a {}-op trace",
                o.committed, self.trace_len[i]
            ));
        }
        if let Some(e) = self.expected[i] {
            if e != o {
                return Err(format!("outcome {o:?} differs from reference {e:?}"));
            }
        }
        match self.first[i] {
            Some(f) if f != o => Err(format!("outcome {o:?} differs from an earlier run {f:?}")),
            Some(_) => Ok(()),
            None => {
                self.first[i] = Some(o);
                Ok(())
            }
        }
    }
}

/// Render outcomes as a reference document (`--write-ref`).
pub fn reference_json(
    w: Workload,
    seed: Option<u64>,
    cells: &[CellSpec],
    outcomes: &[Outcome],
) -> String {
    let rows = cells
        .iter()
        .zip(outcomes)
        .map(|(c, o)| {
            Json::obj(vec![
                ("key", Json::str(&c.key())),
                ("cycles", Json::num(o.cycles as f64)),
                ("committed", Json::num(o.committed as f64)),
                (
                    "stalls",
                    o.stalls.map_or(Json::Null, |s| {
                        Json::Arr(s.iter().map(|&v| Json::num(v as f64)).collect())
                    }),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(w.name())),
        ("seed", seed.map_or(Json::Null, |s| Json::num(s as f64))),
        ("cells", Json::Arr(rows)),
    ])
    .pretty()
}
