//! Native half of the end-to-end benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench-native reference   --adult A.bin --wide W.bin
//! perfbench-native serve-mixed --addr HOST:PORT --session S --data A.bin --seed N
//!                              --seconds T --solo-seconds U
//! perfbench-native layers      --adult A.bin --wide W.bin --work DIR --seed N
//! ```
//!
//! Every subcommand prints one JSON object on stdout holding raw samples;
//! percentiles and medians are taken by the Python harness, so all of the
//! benchmark's arithmetic lives (and is tested) in one place.

mod layers;
mod serve;

use std::collections::HashMap;
use std::process::ExitCode;

/// The identify threshold of every workload (the CLI default).
pub const TAU: f64 = 0.1;

/// Open-loop ingest rate of `serve-mixed`, in batches per second.
pub const INGEST_RATE: f64 = 50.0;

/// Edits per ingest batch, in `serve-mixed` and in the timed delta batch
/// of `layers`.
pub const INGEST_BATCH: usize = 64;

/// `--key value` options after the subcommand.
pub struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.str(name)?;
        v.parse().map_err(|_| format!("--{name}: bad value `{v}`"))
    }
}

/// Accumulates one flat JSON object.
#[derive(Default)]
pub struct JsonOut(Vec<String>);

impl JsonOut {
    pub fn num(&mut self, key: &str, value: f64) {
        self.0.push(format!("\"{key}\":{}", fmt_f64(value)));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.0.push(format!("\"{key}\":{value}"));
    }

    pub fn flag(&mut self, key: &str, value: bool) {
        self.0.push(format!("\"{key}\":{value}"));
    }

    pub fn list(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| fmt_f64(v)).collect();
        self.0.push(format!("\"{key}\":[{}]", items.join(",")));
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// SplitMix64: the seeded source of every generated edit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One ingest batch of `size` edits over a dataset of `rows` rows: flips
/// and duplicates alternate, so half of the batch grows the dataset.
pub fn edit_batch(rng: &mut Rng, rows: &mut usize, size: usize) -> Vec<remedy_dataset::RowEdit> {
    use remedy_dataset::RowEdit;
    (0..size)
        .map(|i| {
            if i % 2 == 0 {
                RowEdit::FlipLabel {
                    row: rng.below(*rows),
                }
            } else {
                let src = rng.below(*rows);
                *rows += 1;
                RowEdit::Duplicate { src }
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: perfbench-native reference|serve-mixed|layers [--option value]...");
        return ExitCode::from(2);
    };
    let result = Opts::parse(rest).and_then(|opts| match command.as_str() {
        "reference" => layers::reference(&opts),
        "serve-mixed" => serve::mixed(&opts),
        "layers" => layers::layers(&opts),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-native {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
