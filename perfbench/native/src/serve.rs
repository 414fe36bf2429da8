//! `serve-mixed`: open-loop ingest plus closed-loop identify against one
//! running `remedy serve` daemon, then a byte-identity check of the final
//! identify reply against a cold in-process identify.

use crate::{edit_batch, JsonOut, Opts, Rng, INGEST_BATCH, INGEST_RATE, TAU};
use remedy_core::{identify_in, persist::regions_to_text, Algorithm, Hierarchy, IbsParams};
use remedy_dataset::{Dataset, RowEdit};
use remedy_pipeline::json::{self, Value};
use remedy_serve::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn edits_json(edits: &[RowEdit]) -> String {
    let items: Vec<String> = edits
        .iter()
        .map(|e| match e {
            RowEdit::FlipLabel { row } => format!("{{\"kind\":\"flip\",\"row\":{row}}}"),
            RowEdit::Duplicate { src } => format!("{{\"kind\":\"duplicate\",\"src\":{src}}}"),
            RowEdit::Remove { .. } => unreachable!("the generator never removes"),
        })
        .collect();
    items.join(",")
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

fn micros(start: Instant, t: Instant) -> f64 {
    t.duration_since(start).as_secs_f64() * 1e6
}

/// One open-loop ingest window: batch `i` is due at
/// `start + i / INGEST_RATE` and is sent at its due time or, when the
/// previous reply came back late, as soon as that reply arrives.
#[derive(Default)]
struct OpenLoop {
    due_us: Vec<f64>,
    sent_us: Vec<f64>,
    done_us: Vec<f64>,
    acked: Vec<bool>,
    failed: u64,
}

impl OpenLoop {
    fn run(client: &mut Client, requests: &[String], window: Duration) -> Result<OpenLoop, String> {
        let mut out = OpenLoop::default();
        let start = Instant::now();
        for (i, request) in requests.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / INGEST_RATE);
            if due >= start + window {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let response = client.request_line(request).map_err(|e| e.to_string())?;
            let done = Instant::now();
            out.acked.push(is_ok(&response));
            out.failed += u64::from(!is_ok(&response));
            out.due_us.push(micros(start, due));
            out.sent_us.push(micros(start, sent));
            out.done_us.push(micros(start, done));
        }
        Ok(out)
    }

    fn emit(&self, out: &mut JsonOut, prefix: &str) {
        out.list(&format!("{prefix}_due_us"), &self.due_us);
        out.list(&format!("{prefix}_sent_us"), &self.sent_us);
        out.list(&format!("{prefix}_done_us"), &self.done_us);
        out.int(&format!("{prefix}_failed"), self.failed);
    }
}

/// The `req_us.<op>` histogram of a `stats` reply as
/// `(count, sum_us, p50_us, p90_us)`.
fn server_hist(stats: &Value, op: &str) -> Option<(u64, u64, u64, u64)> {
    let name = format!("req_us.{op}");
    stats.arr_field("histograms").ok()?.iter().find_map(|h| {
        (h.field("name")?.as_str()? == name).then(|| {
            let get = |k: &str| h.field(k).and_then(Value::as_u64).unwrap_or(0);
            (get("count"), get("sum"), get("p50"), get("p90"))
        })
    })
}

pub fn mixed(opts: &Opts) -> Result<String, String> {
    let addr = opts.str("addr")?;
    let session = opts.str("session")?;
    let data_path = opts.str("data")?;
    let seed: u64 = opts.num("seed")?;
    let seconds: f64 = opts.num("seconds")?;
    let solo_seconds: f64 = opts.num("solo-seconds")?;

    let mut data = Dataset::open(data_path).map_err(|e| e.to_string())?;
    // every batch is generated before the clock starts, so generating
    // edits never delays a send
    let total = ((seconds + solo_seconds) * INGEST_RATE).ceil() as usize + 1;
    let mut rng = Rng::new(seed);
    let mut rows = data.len();
    let batches: Vec<Vec<RowEdit>> = (0..total)
        .map(|_| edit_batch(&mut rng, &mut rows, INGEST_BATCH))
        .collect();
    let requests: Vec<String> = batches
        .iter()
        .map(|b| {
            format!(
                "{{\"op\":\"ingest\",\"session\":\"{session}\",\"edits\":[{}]}}",
                edits_json(b)
            )
        })
        .collect();
    let identify_req = format!("{{\"op\":\"identify\",\"session\":\"{session}\",\"tau\":{TAU}}}");

    let connect = || Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    let mut ingest_client = connect()?;
    let mut identify_client = connect()?;

    // mixed window: both connections start together
    let stop = AtomicBool::new(false);
    let window = Duration::from_secs_f64(seconds);
    let (mixed, identify) = std::thread::scope(|s| {
        let reader = s.spawn(|| -> Result<(Vec<f64>, u64, usize, f64), String> {
            let (mut lat_ms, mut failed, mut bytes) = (Vec::new(), 0, 0);
            let started = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let sent = Instant::now();
                let response = identify_client
                    .request_line(&identify_req)
                    .map_err(|e| e.to_string())?;
                lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                failed += u64::from(!is_ok(&response));
                bytes = response.len() + 1;
            }
            Ok((lat_ms, failed, bytes, started.elapsed().as_secs_f64()))
        });
        let mixed = OpenLoop::run(&mut ingest_client, &requests, window);
        stop.store(true, Ordering::Relaxed);
        (mixed, reader.join().expect("identify thread panicked"))
    });
    let mixed = mixed?;
    let (identify_ms, identify_failed, response_bytes, identify_s) = identify?;

    // server-side view of the mixed window, before the solo window adds
    // to the same histograms
    let mut stats = || -> Result<Value, String> {
        let raw = identify_client
            .request_line("{\"op\":\"stats\"}")
            .map_err(|e| e.to_string())?;
        json::parse(&raw).map_err(|e| e.to_string())
    };
    let mixed_stats = stats()?;

    let solo = if solo_seconds > 0.0 {
        OpenLoop::run(
            &mut ingest_client,
            &requests[mixed.acked.len()..],
            Duration::from_secs_f64(solo_seconds),
        )?
    } else {
        OpenLoop::default()
    };
    let solo_stats = stats()?;

    // the final reply must equal a cold identify over the same rows after
    // replaying every acknowledged batch through Dataset::apply_edit
    let final_raw = identify_client
        .request_line(&identify_req)
        .map_err(|e| e.to_string())?;
    let final_reply = json::parse(&final_raw).map_err(|e| e.to_string())?;
    let served = final_reply.str_field("text").unwrap_or("").to_string();
    let acked = mixed.acked.iter().chain(&solo.acked);
    for (batch, _) in batches.iter().zip(acked).filter(|(_, &ok)| ok) {
        for edit in batch {
            data.apply_edit(edit);
        }
    }
    let params = IbsParams::builder()
        .tau_c(TAU)
        .build()
        .map_err(|e| e.to_string())?;
    let hierarchy = Hierarchy::try_build(&data).map_err(|e| e.to_string())?;
    let cold = regions_to_text(&identify_in(&hierarchy, &params, Algorithm::Optimized));
    let served_rows = final_reply.field("rows").and_then(Value::as_u64);

    let mut out = JsonOut::default();
    out.list("identify_ms", &identify_ms);
    out.int("identify_failed", identify_failed);
    out.int("response_bytes", response_bytes as u64);
    out.num("identify_window_s", identify_s);
    mixed.emit(&mut out, "ingest");
    solo.emit(&mut out, "solo");
    // server histograms are cumulative: the solo window's share is the
    // difference between the two snapshots
    for (prefix, snapshot) in [("server", &mixed_stats), ("server_after_solo", &solo_stats)] {
        for op in ["identify", "ingest"] {
            if let Some((count, sum, p50, p90)) = server_hist(snapshot, op) {
                out.int(&format!("{prefix}_{op}_count"), count);
                out.int(&format!("{prefix}_{op}_sum_us"), sum);
                out.int(&format!("{prefix}_{op}_p50_us"), p50);
                out.int(&format!("{prefix}_{op}_p90_us"), p90);
            }
        }
    }
    out.flag("final_ok", is_ok(&final_raw));
    out.flag(
        "final_identical",
        served == cold && served_rows == Some(data.len() as u64),
    );
    out.int("final_rows", data.len() as u64);
    Ok(out.render())
}
