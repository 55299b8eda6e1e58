//! The closed frame loop: one client hands over one field per frame and
//! waits for the filtered values before producing the next — no think time.

use crate::spans::{Recorder, NO_FRAME};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a frame delivers: one value vector per call it makes (`dist` makes
/// two, every other workload one).
pub type Outputs = Vec<Vec<f64>>;

/// A workload as the frame loop sees it.
pub trait FrameSource {
    /// Number of values every output vector must hold for frame `t`.
    fn expected_len(&self) -> usize;

    /// Generates frame `t`'s inputs. Not timed.
    fn prepare(&mut self, t: usize, rec: &mut Recorder);

    /// Produces frame `t`. Timed, start to return.
    fn frame(&mut self, t: usize, rec: &mut Recorder) -> Result<Outputs, String>;

    /// Called after a traced frame succeeded, to keep what its calls
    /// returned besides the values. Not timed.
    fn observe(&mut self) {}
}

/// When the loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds of wall clock (and at least three frames).
    Seconds(f64),
    /// After exactly this many frames.
    Frames(usize),
}

/// What the loop observed.
#[derive(Debug, Default)]
pub struct FrameLog {
    /// Wall seconds of every attempted frame, in order. In a traced run the
    /// odd ones recorded spans.
    pub walls: Vec<f64>,
    /// Frames that panicked, returned an error, or delivered a wrong-length
    /// or non-finite vector.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// FNV-1a over the bits of every delivered value, in frame order.
    pub checksum: u64,
    /// Outputs of the first and of the last successful frame, with their
    /// frame ids, for the independent checks.
    pub first: Option<(usize, Outputs)>,
    /// See `first`.
    pub last: Option<(usize, Outputs)>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn validate(outputs: &Outputs, expected_len: usize, checksum: &mut u64) -> Result<(), String> {
    if outputs.is_empty() {
        return Err("frame delivered no output".into());
    }
    for values in outputs {
        if values.len() != expected_len {
            return Err(format!(
                "output has {} values, expected {expected_len}",
                values.len()
            ));
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(format!("output value {i} is not finite"));
        }
        for v in values {
            *checksum = (*checksum ^ v.to_bits()).wrapping_mul(FNV_PRIME);
        }
    }
    Ok(())
}

/// Runs `source` frame after frame until `stop`. With `trace_odd_frames`,
/// odd frames record spans and even frames do not, so one run yields both
/// the per-layer numbers and the cost of recording them.
pub fn run_frames(
    source: &mut dyn FrameSource,
    stop: Stop,
    trace_odd_frames: bool,
    rec: &mut Recorder,
) -> FrameLog {
    let mut log = FrameLog {
        checksum: FNV_OFFSET,
        ..FrameLog::default()
    };
    let started = Instant::now();
    for t in 0.. {
        let done = match stop {
            Stop::Seconds(s) => t >= 3 && started.elapsed().as_secs_f64() >= s,
            Stop::Frames(n) => t >= n,
        };
        if done {
            break;
        }
        // Input generation is recorded throughout a traced run: it is not
        // timed, so its spans cost the frames nothing.
        rec.set_enabled(trace_odd_frames);
        rec.set_frame(NO_FRAME);
        source.prepare(t, rec);
        let traced = trace_odd_frames && t % 2 == 1;
        rec.set_enabled(traced);
        rec.set_frame(t as i64);

        let frame_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            rec.span("frame", |rec| source.frame(t, rec))
        }));
        log.walls.push(frame_started.elapsed().as_secs_f64());
        rec.close_dangling();

        let outcome = match result {
            Ok(Ok(outputs)) => {
                validate(&outputs, source.expected_len(), &mut log.checksum).map(|()| outputs)
            }
            Ok(Err(message)) => Err(message),
            Err(_) => Err("panicked".to_string()),
        };
        match outcome {
            Ok(outputs) => {
                if traced {
                    source.observe();
                }
                if log.first.is_none() {
                    log.first = Some((t, outputs));
                } else {
                    log.last = Some((t, outputs));
                }
            }
            Err(message) => {
                log.failed += 1;
                if log.failures.len() < 5 {
                    log.failures.push(format!("frame {t}: {message}"));
                }
            }
        }
    }
    rec.set_enabled(false);
    rec.set_frame(NO_FRAME);
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frame 1 panics, frame 2 returns NaN, frame 3 an error, frame 4 a
    /// short vector; the others deliver `[t, t]`.
    struct Flaky;

    impl FrameSource for Flaky {
        fn expected_len(&self) -> usize {
            2
        }
        fn prepare(&mut self, _t: usize, _rec: &mut Recorder) {}
        fn frame(&mut self, t: usize, _rec: &mut Recorder) -> Result<Outputs, String> {
            match t {
                1 => panic!("injected panic (expected by the harness test)"),
                2 => Ok(vec![vec![0.0, f64::NAN]]),
                3 => Err("injected error".into()),
                4 => Ok(vec![vec![1.0]]),
                _ => Ok(vec![vec![t as f64; 2]]),
            }
        }
    }

    #[test]
    fn failing_frames_are_counted_and_the_run_continues() {
        let mut rec = Recorder::new(false);
        let log = run_frames(&mut Flaky, Stop::Frames(7), false, &mut rec);
        assert_eq!(log.walls.len(), 7, "every frame is attempted");
        assert_eq!(log.failed, 4);
        assert_eq!(log.failures.len(), 4);
        assert!(log.failures[0].contains("frame 1: panicked"));
        assert!(log.failures[1].contains("not finite"));
        assert!(log.failures[2].contains("injected error"));
        assert!(log.failures[3].contains("expected 2"));
        assert_eq!(log.first.as_ref().map(|(t, _)| *t), Some(0));
        assert_eq!(log.last.as_ref().map(|(t, _)| *t), Some(6));
    }

    #[test]
    fn checksum_depends_on_delivered_values_only() {
        struct Constant(f64);
        impl FrameSource for Constant {
            fn expected_len(&self) -> usize {
                3
            }
            fn prepare(&mut self, _t: usize, _rec: &mut Recorder) {}
            fn frame(&mut self, _t: usize, _rec: &mut Recorder) -> Result<Outputs, String> {
                Ok(vec![vec![self.0; 3]])
            }
        }
        let mut rec = Recorder::new(false);
        let a = run_frames(&mut Constant(1.5), Stop::Frames(4), false, &mut rec).checksum;
        let b = run_frames(&mut Constant(1.5), Stop::Frames(4), true, &mut rec).checksum;
        let c = run_frames(&mut Constant(2.5), Stop::Frames(4), false, &mut rec).checksum;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn odd_frames_are_traced_when_asked() {
        let mut rec = Recorder::new(false);
        run_frames(&mut Flaky, Stop::Frames(6), true, &mut rec);
        // Frame 1 panicked inside its span; the recorder closed it and went on.
        let frames: Vec<i64> = rec.spans().iter().map(|s| s.frame).collect();
        assert_eq!(frames, [1, 3, 5]);
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.name == "frame" && s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_seconds_budget_still_runs_three_frames() {
        let mut rec = Recorder::new(false);
        let log = run_frames(&mut Flaky, Stop::Seconds(0.0), false, &mut rec);
        assert_eq!(log.walls.len(), 3);
    }
}
