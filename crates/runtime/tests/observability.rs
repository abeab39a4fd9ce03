//! End-to-end observability tests: the exported Chrome trace of a pinned
//! job carries the full span chain and is valid JSON, Prometheus
//! exposition parses and carries the portfolio's EWMA gauges, cache hits
//! land in the served-latency series, and traced runs are deterministic.

use qdm_core::prelude::*;
use qdm_qubo::model::QuboModel;
use qdm_qubo::penalty;
use qdm_runtime::prelude::*;
use qdm_runtime::trace::{Stage, TraceOutcome};
use std::sync::Arc;

struct PickOne {
    costs: Vec<f64>,
}

impl DmProblem for PickOne {
    fn name(&self) -> String {
        format!("pick-one-of-{}", self.costs.len())
    }
    fn n_vars(&self) -> usize {
        self.costs.len()
    }
    fn to_qubo(&self) -> QuboModel {
        let mut q = QuboModel::new(self.costs.len());
        for (i, &c) in self.costs.iter().enumerate() {
            q.add_linear(i, c);
        }
        let vars: Vec<usize> = (0..self.costs.len()).collect();
        let weight = penalty::penalty_weight(&q);
        penalty::exactly_one(&mut q, &vars, weight);
        q
    }
    fn decode(&self, bits: &[bool]) -> Decoded {
        let chosen: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        Decoded {
            feasible: chosen.len() == 1,
            objective: chosen.iter().map(|&i| self.costs[i]).sum(),
            summary: format!("chose {chosen:?}"),
        }
    }
}

fn pick(n: usize) -> SharedProblem {
    Arc::new(PickOne { costs: (0..n).map(|i| ((i * 7) % 5) as f64 + 1.0).collect() })
}

fn pinned_service() -> SolverService {
    SolverService::new(ServiceConfig { workers: 1, cache_capacity: 64, ..Default::default() })
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser, enough to validate the exported
// trace end to end (the workspace's serde shim has no parser either).

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(
                                self.bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?,
                            )
                            .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------

#[test]
fn solved_job_trace_carries_the_full_span_chain() {
    let service = pinned_service();
    let result =
        service.run(JobSpec::new(pick(6), 3).on_backend("simulated-annealing")).expect("solvable");
    assert!(result.report.decoded.feasible);

    let traces = service.traces();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.outcome, TraceOutcome::Solved);
    assert_eq!(trace.backend.as_deref(), Some(result.backend.as_str()));
    assert_eq!(trace.problem, "pick-one-of-6");
    assert_eq!(trace.seed, 3);
    assert_ne!(trace.fingerprint, 0, "the compile span stamps the canonical fingerprint");

    // Span chain: queued → compile → presolve → solve.
    assert!(trace.span(Stage::Queued).is_some(), "queue wait span present");
    let compiles = trace.spans.iter().filter(|s| s.stage == Stage::Compile).count();
    assert_eq!(compiles, 1, "exactly one compile — the compile-once invariant, now visible");
    assert!(trace.span(Stage::Presolve).is_some());
    let solves: Vec<_> = trace.spans.iter().filter(|s| s.stage == Stage::Solve).collect();
    assert_eq!(solves.len(), 1, "one solve span");
    let solve = solves[0];
    assert_eq!(solve.backend.as_deref(), Some(result.backend.as_str()));
    assert!(solve.predicted_seconds.is_some_and(|p| p > 0.0), "the router's quote: {solve:?}");
    for span in &trace.spans {
        assert!(span.end_ns >= span.start_ns, "monotonic span: {span:?}");
    }
    // Chronology: queued ends before compile starts, compile before
    // presolve, presolve before the solve.
    let queued = trace.span(Stage::Queued).unwrap();
    let compile = trace.span(Stage::Compile).unwrap();
    let presolve = trace.span(Stage::Presolve).unwrap();
    assert!(queued.end_ns <= compile.start_ns);
    assert!(compile.end_ns <= presolve.start_ns);
    assert!(presolve.end_ns <= solve.start_ns);
    // The annealer ran actual restarts, and the probe profiled them.
    assert!(solve.stats.restarts >= 1, "probed restart counters reached the trace");
    assert!(solve.stats.proposals >= 1);
}

#[test]
fn exported_chrome_trace_round_trips_through_json() {
    let service = pinned_service();
    service.run(JobSpec::new(pick(6), 3).on_backend("simulated-annealing")).expect("solvable");
    let exported = service.export_traces();

    let doc = Parser::parse(&exported).expect("export is valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert_eq!(events.len(), 4, "queued + compile + presolve + solve");
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"), "complete events");
        assert_eq!(event.get("cat").and_then(Json::as_str), Some("qdm"));
        assert_eq!(event.get("pid").and_then(Json::as_num), Some(1.0));
        // The job's spans never overlap, so they share the job's lane.
        assert_eq!(event.get("tid").and_then(Json::as_num), Some(0.0), "tid is the job id");
        assert!(event.get("ts").and_then(Json::as_num).is_some());
        assert!(event.get("dur").and_then(Json::as_num).unwrap() >= 0.0);
        let args = event.get("args").expect("args object");
        assert_eq!(args.get("problem").and_then(Json::as_str), Some("pick-one-of-6"));
        assert_eq!(args.get("outcome").and_then(Json::as_str), Some("solved"));
        assert_eq!(args.get("fingerprint").and_then(Json::as_str).map(str::len), Some(16));
    }
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
    assert_eq!(names, ["queued", "compile", "presolve", "solve"], "the chain in order");
    let solve_args = events[3].get("args").unwrap();
    assert_eq!(solve_args.get("backend").and_then(Json::as_str), Some("simulated-annealing"));
}

#[test]
fn empty_service_exports_valid_empty_trace() {
    let service = pinned_service();
    let doc = Parser::parse(&service.export_traces()).expect("valid JSON");
    assert_eq!(doc.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
}

#[test]
fn disabled_tracing_records_nothing_but_serves_metrics() {
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 64,
        tracing: TraceConfig::Disabled,
        ..Default::default()
    });
    service.run(JobSpec::new(pick(5), 1)).expect("ok");
    service.run(JobSpec::new(pick(5), 1)).expect("ok");
    assert!(service.traces().is_empty());
    let report = service.report();
    assert_eq!(report.traces_recorded, 0);
    // The served-latency fix is independent of tracing: both deliveries
    // (one solve, one cache hit) are in the series.
    assert_eq!(report.served_latency_histogram.iter().sum::<u64>(), 2);
}

#[test]
fn cache_hits_and_coalesced_jobs_land_in_served_latency() {
    let service = pinned_service();
    let first = service.run(JobSpec::new(pick(5), 9)).expect("ok");
    let again = service.run(JobSpec::new(pick(5), 9)).expect("ok");
    assert!(!first.from_cache && again.from_cache);
    let report = service.report();
    assert_eq!(
        report.latency_histogram.iter().sum::<u64>(),
        1,
        "the solve histogram only sees the miss"
    );
    assert_eq!(
        report.served_latency_histogram.iter().sum::<u64>(),
        2,
        "the served histogram sees both deliveries — the p99 callers actually wait"
    );
    assert!(report.served_latency_quantile(0.99).is_some());
    assert!(report.latency_quantile(0.5).is_some());
    assert!(report.served_seconds_total > 0.0);
    // The traces agree: one solved, one cache hit, and the hit's timeline
    // still shows queue wait + compile + serve (it compiled to fingerprint).
    let traces = service.traces();
    assert_eq!(traces.len(), 2);
    assert_eq!(traces[0].outcome, TraceOutcome::Solved);
    assert_eq!(traces[1].outcome, TraceOutcome::CacheHit);
    assert!(traces[1].span(Stage::Serve).is_some());
    assert!(traces[1].span(Stage::Solve).is_none(), "cache hits never solve");
    assert_eq!(traces[0].fingerprint, traces[1].fingerprint, "same canonical work identity");
}

#[test]
fn prometheus_exposition_from_a_live_service_parses_and_carries_ewma_gauges() {
    let service = pinned_service();
    service.run(JobSpec::new(pick(6), 3)).expect("ok");
    service.run(JobSpec::new(pick(6), 3)).expect("cache hit");
    let report = service.report();
    assert!(!report.backend_telemetry.is_empty(), "the solve populated the portfolio EWMAs");
    let text = report.render_prometheus();

    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(name.starts_with("qdm_"), "{line}");
        value.parse::<f64>().unwrap_or_else(|_| panic!("unparsable sample: {line}"));
    }
    // The gauges that previously never left portfolio.rs.
    for t in &report.backend_telemetry {
        assert!(
            text.contains(&format!(
                "qdm_backend_ewma_latency_seconds{{backend=\"{}\"}}",
                t.backend
            )),
            "missing EWMA latency gauge for {}: {text}",
            t.backend
        );
        assert!(
            text.contains(&format!("qdm_backend_ewma_quality{{backend=\"{}\"}}", t.backend)),
            "missing EWMA quality gauge for {}",
            t.backend
        );
    }
    assert!(text.contains("qdm_traces_recorded_total 2\n"));
    assert!(text.contains("qdm_served_latency_seconds_count 2\n"));
    assert!(text.contains("qdm_solve_latency_seconds_count 1\n"));
}

#[test]
fn pinned_single_worker_runs_trace_deterministically() {
    // Two fresh single-worker services, same submission sequence: the span
    // structure (everything except wall-clock timestamps) must be
    // identical run to run.
    type SpanShape = (Stage, Option<String>, u64, u64);
    fn shape() -> Vec<(u64, TraceOutcome, Vec<SpanShape>)> {
        let service = pinned_service();
        let specs: Vec<JobSpec> = vec![
            JobSpec::new(pick(6), 3).on_backend("simulated-annealing"),
            JobSpec::new(pick(5), 9),
            JobSpec::new(pick(5), 9), // cache hit
            JobSpec::new(pick(7), 1).on_backend("tabu"),
        ];
        for outcome in service.run_batch(specs) {
            outcome.expect("solvable");
        }
        service
            .traces()
            .into_iter()
            .map(|t| {
                (
                    t.job_id,
                    t.outcome,
                    t.spans
                        .into_iter()
                        .map(|s| (s.stage, s.backend, s.stats.restarts, s.stats.proposals))
                        .collect(),
                )
            })
            .collect()
    }
    let a = shape();
    let b = shape();
    assert_eq!(a.len(), 4);
    assert_eq!(a, b, "traced span sequences are deterministic modulo timestamps");
}

#[test]
fn ring_capacity_bounds_retention_and_counts_drops_end_to_end() {
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 64,
        tracing: TraceConfig::RingWithCapacity(2),
        ..Default::default()
    });
    for seed in 0..5 {
        service.run(JobSpec::new(pick(4), seed)).expect("ok");
    }
    let traces = service.traces();
    assert_eq!(traces.len(), 2, "ring retains only the newest two");
    assert_eq!(service.trace_drops(), 3);
    let report = service.report();
    assert_eq!(report.traces_recorded, 5);
    assert_eq!(report.traces_dropped, 3);
    // The survivors are the most recent completions, in order.
    assert!(traces[0].job_id < traces[1].job_id);
    assert_eq!(traces[1].job_id, 4);
}
