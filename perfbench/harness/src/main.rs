//! `perfbench-harness` — the in-process half of the schevo benchmark.
//!
//! `perfbench/run.py` drives the release `schevo` binary for the
//! process-level workload and calls this program for the parts that
//! must run through the library:
//!
//! ```text
//! perfbench-harness reference --seed S --out FILE
//!     journal-free in-process study (workers 1); writes the study bytes
//! perfbench-harness expected --seed S
//!     the taxon counts the generator plans for the seed's universe
//! perfbench-harness corpus-size --from A --to B
//! perfbench-harness appendix-size --seed S --batches N
//!     corpus and appendix sizes per seed, for perfbench/make_universes.py
//! perfbench-harness append-setup --seed S --batch B --work DIR
//!     store, primed journal, appendix and journal-free reference in DIR
//! perfbench-harness append-run --seed S --batch B --seconds T --work DIR
//!     restore the pristine store and journal of DIR before each timed op
//!     (append + resume study + JSON) until T seconds have passed
//! perfbench-harness trace --workload W --seed S --batch B --work DIR
//!     one traced op of workload W, decomposed into each crate's public
//!     entry point, plus probes of the layers that op does not reach
//! ```
//!
//! Every command prints one JSON object on stdout. Output checks are
//! reported as SHA-1 digests of the study bytes; run.py compares them,
//! so all failure accounting lives in one place.

mod layers;
mod loads;
mod trace;

use serde::value::Value;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("reference") => loads::cmd_reference(&Flags(rest)),
        Some("expected") => loads::cmd_expected(&Flags(rest)),
        Some("corpus-size") => loads::cmd_corpus_size(&Flags(rest)),
        Some("appendix-size") => loads::cmd_appendix_size(&Flags(rest)),
        Some("append-setup") => loads::cmd_append_setup(&Flags(rest)),
        Some("append-run") => loads::cmd_append_run(&Flags(rest)),
        Some("trace") => trace::cmd_trace(&Flags(rest)),
        _ => Err(
            "usage: perfbench-harness reference|expected|corpus-size|appendix-size|append-setup|append-run|trace ..."
                .into(),
        ),
    };
    match result.and_then(|out| serde_json::to_string(&out).map_err(|e| e.to_string())) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    }
}

/// A JSON object with the fields in the given order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `--name value` flags of one command.
pub struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse().map_err(|_| format!("bad {name} `{v}`"))
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.get(name).map(PathBuf::from)
    }
}
