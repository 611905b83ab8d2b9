//! Execution tracing: per-rank event timelines over simulated time.
//!
//! HPC courses put timeline viewers (Jumpshot, Vampir) in front of
//! students so the *shape* of an execution — alternating phases of
//! computation and communication, serialization behind a root, idle time
//! behind a straggler — becomes visible. This module records that shape:
//! with [`WorldConfig::with_tracing`](crate::WorldConfig::with_tracing)
//! enabled, every rank logs compute, send, receive, and wait spans in
//! simulated time, and [`render_timeline`] draws the classic per-rank
//! Gantt strip as text.
//!
//! ```text
//! rank 0 │####>···<####>···<####
//! rank 1 │···<####>···<####>···
//!         └ # compute  > send  < recv/wait  · idle
//! ```

use crate::tune::CollAlgo;
use serde::{Deserialize, Serialize};

/// What a rank was doing during a span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Charged computation.
    Compute,
    /// Sending (overhead + injection gap, plus rendezvous wait).
    Send,
    /// Receiving (including time blocked waiting for the message).
    Recv,
}

/// One traced span on a rank's timeline, in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Activity class.
    pub kind: SpanKind,
    /// Simulated start time.
    pub start: f64,
    /// Simulated end time (≥ start).
    pub end: f64,
    /// Peer rank for Send/Recv spans (self for Compute).
    pub peer: usize,
    /// Bytes moved (0 for Compute).
    pub bytes: usize,
    /// True for point-to-point traffic generated inside a collective.
    pub internal: bool,
    /// True for the blocked portion of a rendezvous send (the sender
    /// waiting in `await_ack` for the matching receive).
    pub rdv_wait: bool,
    /// Sender sequence number: the envelope stamped on a Send span, or the
    /// matched envelope on a Recv span. `None` for Compute and wait-only
    /// spans — this is what lets pdc-prof pair a receive with the send
    /// that produced it.
    pub seq: Option<u64>,
    /// Recv spans: simulated time the matched message left its sender
    /// (post-injection). `None` elsewhere.
    pub sent_at: Option<f64>,
    /// Compute spans: floating-point operations charged.
    pub flops: f64,
    /// Compute spans: DRAM bytes charged (the roofline memory leg).
    pub mem_bytes: f64,
    /// Collective-internal spans: the [`CollAlgo`] that generated the
    /// traffic. `None` for point-to-point spans and for untuned runs
    /// (where no algorithm selection is active).
    pub algo: Option<CollAlgo>,
}

impl Span {
    /// A span with only the classic fields set; counters and matching
    /// metadata default to empty. Test and rendering helpers use this.
    pub fn basic(kind: SpanKind, start: f64, end: f64, peer: usize, bytes: usize) -> Self {
        Self {
            kind,
            start,
            end,
            peer,
            bytes,
            internal: false,
            rdv_wait: false,
            seq: None,
            sent_at: None,
            flops: 0.0,
            mem_bytes: 0.0,
            algo: None,
        }
    }

    /// Span length in simulated seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A rank's full trace.
pub type Timeline = Vec<Span>;

/// One named program phase on a rank, in simulated seconds. Opened with
/// [`Comm::phase_begin`](crate::Comm::phase_begin) / closed with
/// [`Comm::phase_end`](crate::Comm::phase_end); pdc-prof attributes the
/// spans inside it to the phase name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Phase name (e.g. `"row_scan"`, `"halo_wait"`).
    pub name: String,
    /// Simulated time the phase opened.
    pub start: f64,
    /// Simulated time the phase closed (≥ start).
    pub end: f64,
}

/// One world-collective entry event on a rank. The `seq`-th collective on
/// every rank is the *same* collective (collectives are matched), so
/// comparing `enter` across ranks at fixed `seq` measures arrival
/// imbalance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollSpan {
    /// Collective name (`"bcast"`, `"allreduce"`, …).
    pub name: String,
    /// Per-rank ordinal of this world collective (0-based).
    pub seq: u64,
    /// Simulated time this rank entered the collective.
    pub enter: f64,
    /// The algorithm this collective resolved to, when selection was
    /// active (a tuning table installed); `None` on untuned runs. Old serialized spans without the field read back as `None`.
    pub algo: Option<CollAlgo>,
}

/// Per-kind totals of one timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineSummary {
    /// Simulated seconds computing.
    pub compute: f64,
    /// Simulated seconds sending.
    pub send: f64,
    /// Simulated seconds receiving/waiting.
    pub recv: f64,
}

/// Summarize a timeline into per-kind totals.
pub fn summarize(timeline: &[Span]) -> TimelineSummary {
    let mut s = TimelineSummary::default();
    for span in timeline {
        match span.kind {
            SpanKind::Compute => s.compute += span.duration(),
            SpanKind::Send => s.send += span.duration(),
            SpanKind::Recv => s.recv += span.duration(),
        }
    }
    s
}

/// Render per-rank timelines as a `width`-column text Gantt chart over
/// `[0, horizon]` (the maximum end time when `horizon` is `None`).
///
/// Characters: `#` compute, `>` send, `<` recv/wait, `·` idle. When
/// multiple spans land in one column, the busiest kind wins.
pub fn render_timeline(traces: &[Timeline], width: usize, horizon: Option<f64>) -> String {
    if width == 0 {
        return String::from("(empty timeline)\n");
    }
    let horizon = horizon.unwrap_or_else(|| {
        traces
            .iter()
            .flatten()
            .map(|s| s.end)
            .fold(0.0f64, f64::max)
    });
    let mut out = String::new();
    if horizon <= 0.0 {
        out.push_str("(empty timeline)\n");
        return out;
    }
    let col_dt = horizon / width as f64;
    for (rank, timeline) in traces.iter().enumerate() {
        // Accumulate busy time per column per kind.
        let mut busy = vec![[0.0f64; 3]; width];
        for span in timeline {
            let first = ((span.start / col_dt) as usize).min(width - 1);
            let last = ((span.end / col_dt) as usize).min(width - 1);
            for (col, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                let c0 = col as f64 * col_dt;
                let c1 = c0 + col_dt;
                let overlap = (span.end.min(c1) - span.start.max(c0)).max(0.0);
                let idx = match span.kind {
                    SpanKind::Compute => 0,
                    SpanKind::Send => 1,
                    SpanKind::Recv => 2,
                };
                slot[idx] += overlap;
            }
        }
        out.push_str(&format!("rank {rank:>3} │"));
        for slot in &busy {
            let total: f64 = slot.iter().sum();
            let ch = if total < col_dt * 0.05 {
                '·'
            } else if slot[0] >= slot[1] && slot[0] >= slot[2] {
                '#'
            } else if slot[1] >= slot[2] {
                '>'
            } else {
                '<'
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out.push_str("         └ # compute  > send  < recv/wait  · idle\n");
    out
}

/// Export timelines in the Chrome tracing (catapult) JSON format: open
/// `chrome://tracing` or <https://ui.perfetto.dev> and load the file.
/// Each rank becomes a thread; durations are in microseconds of simulated
/// time.
pub fn to_chrome_json(traces: &[Timeline]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (rank, timeline) in traces.iter().enumerate() {
        for span in timeline {
            if !first {
                out.push(',');
            }
            first = false;
            let mut name = match span.kind {
                SpanKind::Compute => "compute".to_string(),
                SpanKind::Send => format!("send->r{} ({}B)", span.peer, span.bytes),
                SpanKind::Recv => format!("recv<-r{} ({}B)", span.peer, span.bytes),
            };
            if let Some(algo) = span.algo {
                name.push_str(&format!(" [{}]", algo.name()));
            }
            let cat = match span.kind {
                SpanKind::Compute => "compute",
                SpanKind::Send | SpanKind::Recv => "comm",
            };
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{rank}}}",
                span.start * 1e6,
                span.duration() * 1e6,
            ));
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: f64, end: f64) -> Span {
        Span::basic(kind, start, end, 0, 0)
    }

    #[test]
    fn summary_totals_by_kind() {
        let t = vec![
            span(SpanKind::Compute, 0.0, 2.0),
            span(SpanKind::Send, 2.0, 2.5),
            span(SpanKind::Recv, 2.5, 4.0),
            span(SpanKind::Compute, 4.0, 5.0),
        ];
        let s = summarize(&t);
        assert!((s.compute - 3.0).abs() < 1e-12);
        assert!((s.send - 0.5).abs() < 1e-12);
        assert!((s.recv - 1.5).abs() < 1e-12);
    }

    #[test]
    fn render_marks_phases_in_order() {
        let traces = vec![vec![
            span(SpanKind::Compute, 0.0, 1.0),
            span(SpanKind::Recv, 1.0, 2.0),
        ]];
        let s = render_timeline(&traces, 10, None);
        let row = s.lines().next().expect("one row");
        let strip: String = row.chars().skip_while(|&c| c != '│').skip(1).collect();
        assert_eq!(&strip[..5], "#####");
        assert_eq!(&strip[5..10], "<<<<<");
    }

    #[test]
    fn idle_gaps_render_as_dots() {
        let traces = vec![vec![
            span(SpanKind::Compute, 0.0, 1.0),
            span(SpanKind::Compute, 3.0, 4.0),
        ]];
        let s = render_timeline(&traces, 8, None);
        assert!(s.contains("··"), "{s}");
    }

    #[test]
    fn empty_traces_render_gracefully() {
        let s = render_timeline(&[Vec::new(), Vec::new()], 20, None);
        assert!(s.contains("empty timeline"));
    }

    #[test]
    fn chrome_export_is_valid_jsonish() {
        let traces = vec![
            vec![
                span(SpanKind::Compute, 0.0, 1.0),
                span(SpanKind::Send, 1.0, 1.5),
            ],
            vec![span(SpanKind::Recv, 0.0, 1.5)],
        ];
        let json = to_chrome_json(&traces);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("compute"));
        // Parses as JSON.
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed.as_array().expect("array").len(), 3);
    }

    #[test]
    fn zero_width_renders_gracefully() {
        let traces = vec![vec![span(SpanKind::Compute, 0.0, 1.0)]];
        let s = render_timeline(&traces, 0, None);
        assert!(s.contains("empty timeline"));
        let s = render_timeline(&traces, 0, Some(5.0));
        assert!(s.contains("empty timeline"));
    }

    #[test]
    fn all_empty_timelines_with_horizon_render_idle_rows() {
        let s = render_timeline(&[Vec::new(), Vec::new()], 10, Some(1.0));
        let rows: Vec<&str> = s.lines().collect();
        assert_eq!(rows.len(), 3, "{s}");
        for row in &rows[..2] {
            let strip: String = row.chars().skip_while(|&c| c != '│').skip(1).collect();
            assert_eq!(strip, "··········");
        }
    }

    #[test]
    fn span_ending_exactly_at_horizon_does_not_panic() {
        let traces = vec![vec![span(SpanKind::Compute, 0.5, 1.0)]];
        let s = render_timeline(&traces, 10, Some(1.0));
        let row = s.lines().next().expect("one row");
        assert!(row.ends_with('#'), "{s}");
        // Degenerate single-column chart with the span filling it exactly.
        let s = render_timeline(&traces, 1, Some(1.0));
        assert!(s.lines().next().expect("one row").ends_with('#'), "{s}");
    }

    #[test]
    fn explicit_horizon_rescales() {
        let traces = vec![vec![span(SpanKind::Compute, 0.0, 1.0)]];
        let narrow = render_timeline(&traces, 10, Some(1.0));
        let wide = render_timeline(&traces, 10, Some(10.0));
        let busy = |s: &str| s.chars().filter(|&c| c == '#').count();
        assert!(busy(&narrow) > busy(&wide));
    }
}
