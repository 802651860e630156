//! Trace-driven load generation for the fleet layer.
//!
//! The serving benches used to offer a fixed 1→8 sweep of identical
//! sessions; real deployments see nothing of the sort. This module
//! synthesises **deterministic traffic traces**: seeded arrival processes
//! (Poisson thinned against a bursty, diurnal or spike envelope),
//! heterogeneous session shapes (task, resolution class, GOP length,
//! compute mode, pacing) and mid-stream churn (sessions that leave before
//! their stream drains). Every random decision is a counter-based hash of
//! the trace seed and the decision's identity — the same idiom the fault
//! injector uses — so a trace is a pure function of its config: no RNG
//! state threads through generation, and two runs (at any thread count)
//! produce bit-identical traces.
//!
//! A trace says *when sessions arrive and what shape they are*; it does
//! not carry video. The fleet layer resolves each arrival's [`SessionShape`]
//! against a small library of driven stream templates
//! ([`crate::session::SessionTemplate`]) and restamps pacing per arrival,
//! so 64+ concurrent sessions cost the NN compute of a handful of distinct
//! streams.

use crate::error::{Result, ServeError};
use crate::faults::draw;
use vr_dann::ComputeMode;

/// Recognition task a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Semantic segmentation (the paper's NN-L/NN-S pipeline).
    Segmentation,
    /// Object detection (the detection-head variant).
    Detection,
}

/// Frame-geometry class of a session's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResClass {
    /// The suite's standard resolution.
    Std,
    /// A reduced resolution (cheaper NN-L anchors).
    Low,
}

/// GOP-length class of a session's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GopClass {
    /// The suite's standard GOP.
    Standard,
    /// Short GOPs: more anchors per frame, NN-L-heavier.
    Short,
}

/// The shape attributes of one offered session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionShape {
    /// Recognition task.
    pub task: TaskKind,
    /// Resolution class.
    pub res: ResClass,
    /// GOP class.
    pub gop: GopClass,
    /// NN-S compute mode the session requests.
    pub compute: ComputeMode,
}

impl SessionShape {
    /// The homogeneous legacy shape: standard-resolution segmentation,
    /// standard GOP, full-precision NN-S.
    pub fn standard() -> Self {
        Self {
            task: TaskKind::Segmentation,
            res: ResClass::Std,
            gop: GopClass::Standard,
            compute: ComputeMode::F32Reference,
        }
    }
}

/// One offered session in a traffic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionArrival {
    /// Offer identity, dense in offer order (= arrival-time order).
    pub id: usize,
    /// Index into the caller's stream library (taken modulo its length).
    pub stream: usize,
    /// Instant the session arrives, in nanoseconds.
    pub arrive_ns: f64,
    /// Inter-frame pacing the session requests, in nanoseconds. `0.0`
    /// means *server-paced* — the legacy sweep profile, where the server
    /// derives pacing from its load factor and the stream's NN-L time.
    pub interval_ns: f64,
    /// `Some(t)`: the session leaves at absolute instant `t` (mid-stream
    /// churn); work after `t` is never offered. `None`: it drains fully.
    pub depart_ns: Option<f64>,
    /// Heterogeneous shape attributes.
    pub shape: SessionShape,
}

/// A deterministic traffic trace: arrivals in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficTrace {
    /// Offered sessions, ascending `arrive_ns` (ties broken by id).
    pub arrivals: Vec<SessionArrival>,
    /// The envelope's reference window, in nanoseconds (diurnal period,
    /// spike placement).
    pub horizon_ns: f64,
}

/// Arrival-intensity envelope over the trace horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Envelope {
    /// Constant intensity.
    Flat,
    /// Poisson-bursty: full intensity inside periodic bursts, a quiet
    /// floor between them.
    Bursty {
        /// Burst period as a fraction of the horizon (e.g. `0.25` = four
        /// bursts per horizon).
        period_frac: f64,
        /// Fraction of each period that is burst (the rest is quiet).
        duty: f64,
        /// Intensity between bursts, relative to the burst peak (0..1).
        quiet_level: f64,
    },
    /// Diurnal: raised-cosine day/night cycle, one period per horizon.
    Diurnal {
        /// Night-trough intensity relative to the midday peak (0..1).
        trough_level: f64,
    },
    /// A flash-crowd spike: base intensity everywhere, `factor`× inside
    /// the window — the 4× traffic spike the autoscaler must absorb.
    Spike {
        /// Arrival-rate multiplier inside the spike window.
        factor: f64,
        /// Spike start, as a fraction of the horizon.
        start_frac: f64,
        /// Spike end, as a fraction of the horizon.
        end_frac: f64,
    },
}

impl Envelope {
    /// Intensity at `frac` of the horizon, relative to the base rate.
    /// Periodic envelopes wrap past the horizon; the spike does not recur.
    fn level(&self, frac: f64) -> f64 {
        match *self {
            Envelope::Flat => 1.0,
            Envelope::Bursty {
                period_frac,
                duty,
                quiet_level,
            } => {
                let period = period_frac.max(1e-9);
                let phase = (frac / period).fract();
                if phase < duty.clamp(0.0, 1.0) {
                    1.0
                } else {
                    quiet_level.clamp(0.0, 1.0)
                }
            }
            Envelope::Diurnal { trough_level } => {
                let t = trough_level.clamp(0.0, 1.0);
                let day = frac.fract();
                t + (1.0 - t) * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * day).cos())
            }
            Envelope::Spike {
                factor,
                start_frac,
                end_frac,
            } => {
                if frac >= start_frac && frac < end_frac {
                    factor.max(1.0)
                } else {
                    1.0
                }
            }
        }
    }

    /// The envelope's peak intensity (the thinning normaliser).
    fn peak(&self) -> f64 {
        match *self {
            Envelope::Spike { factor, .. } => factor.max(1.0),
            _ => 1.0,
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// Trace seed: every arrival instant, shape draw and churn decision is
    /// a pure hash of this.
    pub seed: u64,
    /// Sessions to offer.
    pub sessions: usize,
    /// Distinct streams in the caller's library the trace cycles over.
    pub streams: usize,
    /// Nominal frames per stream (sizes the churn-departure window).
    pub stream_frames: usize,
    /// Base inter-frame pacing, in nanoseconds.
    pub base_interval_ns: f64,
    /// Mean arrival gap at base intensity, in nanoseconds.
    pub mean_interarrival_ns: f64,
    /// Envelope reference window, in nanoseconds.
    pub horizon_ns: f64,
    /// Arrival-intensity envelope.
    pub envelope: Envelope,
    /// Probability an offered session churns out mid-stream.
    pub churn_rate: f64,
    /// Draw heterogeneous shapes and pacing; `false` = every session is
    /// [`SessionShape::standard`] at `base_interval_ns`.
    pub heterogeneous: bool,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed_f1ee_7000_0001,
            sessions: 64,
            streams: 6,
            stream_frames: 16,
            base_interval_ns: 2e6,
            mean_interarrival_ns: 1e6,
            horizon_ns: 1e8,
            envelope: Envelope::Flat,
            churn_rate: 0.15,
            heterogeneous: true,
        }
    }
}

// Counter-based draws `(seed, salt, candidate, sub-draw, 0)` — the fault
// injector's splitmix64 hash, with this module's own salts so traces and
// fault plans never correlate.
const SALT_GAP: u64 = 0x7ace_10ad_0a11;
const SALT_THIN: u64 = 0x7ace_10ad_0a12;
const SALT_STREAM: u64 = 0x7ace_10ad_0a13;
const SALT_SHAPE: u64 = 0x7ace_10ad_0a14;
const SALT_PACE: u64 = 0x7ace_10ad_0a15;
const SALT_CHURN: u64 = 0x7ace_10ad_0a16;
const SALT_DEPART: u64 = 0x7ace_10ad_0a17;

/// Candidates [`generate`] may draw per requested arrival before it gives
/// up on a load. Thinning keeps a candidate with probability `level /
/// peak`, so an envelope that keeps nothing, or sits this far below its
/// peak for the whole horizon, would otherwise spin forever or for hours.
const MAX_CANDIDATES_PER_ARRIVAL: u64 = 1 << 16;

/// Exponential variate with the given mean from a uniform draw.
fn exp_gap(mean_ns: f64, u: f64) -> f64 {
    // 1 − u ∈ (0, 1]; ln of it is ≤ 0, so the gap is ≥ 0 and finite.
    -mean_ns * (1.0 - u).ln()
}

/// Rejects, before any draw, a configuration under which [`generate`]
/// would stamp arrivals at non-finite or decreasing instants (a mean gap
/// that is not finite and positive) or could never keep a candidate (a
/// bursty envelope that is silent both in and between its bursts).
fn check_load(cfg: &LoadGenConfig) -> Result<()> {
    let invalid = |detail: String| {
        Err(ServeError::Refused {
            detail: format!("invalid load: {detail}"),
        })
    };
    let mean = cfg.mean_interarrival_ns;
    if !(mean.is_finite() && mean > 0.0) {
        return invalid(format!(
            "mean_interarrival_ns is {mean}, must be finite and positive"
        ));
    }
    if let Envelope::Bursty {
        duty, quiet_level, ..
    } = cfg.envelope
    {
        if !(duty > 0.0 || quiet_level > 0.0) {
            return invalid(format!(
                "bursty envelope keeps no arrival: duty {duty}, quiet_level {quiet_level}"
            ));
        }
    }
    Ok(())
}

/// Generates a deterministic traffic trace.
///
/// Arrivals are a Poisson process at the envelope's peak rate, thinned to
/// the envelope's local intensity (Lewis–Shedler): candidate instants come
/// from exponential gaps, and a candidate at time `t` is kept with
/// probability `level(t) / peak`. Kept arrivals then draw stream identity,
/// shape, pacing and churn. The candidate counter — not the kept count —
/// salts every draw, so inserting or removing an envelope never shifts the
/// randomness of later decisions.
///
/// # Errors
/// [`ServeError::Refused`] when `mean_interarrival_ns` is not
/// finite and positive or a bursty envelope has neither a positive `duty`
/// nor a positive `quiet_level` (both before any draw), and when
/// `MAX_CANDIDATES_PER_ARRIVAL` candidates per requested arrival do not
/// fill the trace — the fate of any envelope that keeps (almost) nothing,
/// such as a non-finite or huge spike factor, a NaN level or an infinite
/// horizon.
pub fn generate(cfg: &LoadGenConfig) -> Result<TrafficTrace> {
    check_load(cfg)?;
    let peak = cfg.envelope.peak();
    let peak_mean = cfg.mean_interarrival_ns / peak;
    let mut arrivals = Vec::with_capacity(cfg.sessions);
    let mut t = 0.0f64;
    let mut cand = 0u64;
    let max_candidates = (cfg.sessions as u64).saturating_mul(MAX_CANDIDATES_PER_ARRIVAL);
    while arrivals.len() < cfg.sessions {
        if cand == max_candidates {
            return Err(ServeError::Refused {
                detail: format!(
                    "invalid load: {cand} candidates kept {} of {} arrivals; the envelope \
                     stays too far below its peak",
                    arrivals.len(),
                    cfg.sessions
                ),
            });
        }
        t += exp_gap(peak_mean, draw(cfg.seed, SALT_GAP, cand, 0, 0));
        let frac = t / cfg.horizon_ns.max(1.0);
        let keep = draw(cfg.seed, SALT_THIN, cand, 0, 0) < cfg.envelope.level(frac) / peak;
        cand += 1;
        if !keep {
            continue;
        }
        let id = arrivals.len();
        let stream = (draw(cfg.seed, SALT_STREAM, cand, 0, 0) * cfg.streams.max(1) as f64) as usize;
        let (shape, interval_ns) = if cfg.heterogeneous {
            let shape = SessionShape {
                task: if draw(cfg.seed, SALT_SHAPE, cand, 0, 0) < 0.25 {
                    TaskKind::Detection
                } else {
                    TaskKind::Segmentation
                },
                res: if draw(cfg.seed, SALT_SHAPE, cand, 1, 0) < 0.25 {
                    ResClass::Low
                } else {
                    ResClass::Std
                },
                gop: if draw(cfg.seed, SALT_SHAPE, cand, 2, 0) < 0.25 {
                    GopClass::Short
                } else {
                    GopClass::Standard
                },
                compute: if draw(cfg.seed, SALT_SHAPE, cand, 3, 0) < 0.25 {
                    ComputeMode::Int8
                } else {
                    ComputeMode::F32Reference
                },
            };
            // Pacing spread ±: 0.8×..1.6× the base interval.
            let pace = 0.8 + 0.8 * draw(cfg.seed, SALT_PACE, cand, 0, 0);
            (shape, cfg.base_interval_ns * pace)
        } else {
            (SessionShape::standard(), cfg.base_interval_ns)
        };
        let depart_ns = if draw(cfg.seed, SALT_CHURN, cand, 0, 0) < cfg.churn_rate {
            // Uniform over the nominal stream span: early draws model a
            // session that leaves before it is ever served.
            let span = cfg.stream_frames as f64 * interval_ns;
            Some(t + span * draw(cfg.seed, SALT_DEPART, cand, 0, 0))
        } else {
            None
        };
        arrivals.push(SessionArrival {
            id,
            stream,
            arrive_ns: t,
            interval_ns,
            depart_ns,
            shape,
        });
    }
    Ok(TrafficTrace {
        arrivals,
        horizon_ns: cfg.horizon_ns,
    })
}

/// The fixed-seed **legacy sweep** profile: the exact offered workload
/// `serve_bench`'s 1→K sweep has always used — `k` simultaneous arrivals at
/// `t = 0`, cycling a `suite_len`-stream library in offer order, standard
/// shape, server-paced (`interval_ns = 0`), no churn. `serve_bench` sources
/// its request mapping from this trace so the sweep and the fleet bench
/// share one definition of "offered load"; its rows stay byte-identical
/// because the mapping is the same `i % suite_len` it always was.
pub fn legacy_sweep(k: usize, suite_len: usize) -> TrafficTrace {
    let arrivals = (0..k)
        .map(|i| SessionArrival {
            id: i,
            stream: i % suite_len.max(1),
            arrive_ns: 0.0,
            interval_ns: 0.0,
            depart_ns: None,
            shape: SessionShape::standard(),
        })
        .collect();
    TrafficTrace {
        arrivals,
        horizon_ns: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_time_ordered() {
        let cfg = LoadGenConfig::default();
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a, b, "same config must generate bit-identical traces");
        assert_eq!(a.arrivals.len(), cfg.sessions);
        for (i, arr) in a.arrivals.iter().enumerate() {
            assert_eq!(arr.id, i);
            assert!(arr.stream < cfg.streams);
            assert!(arr.arrive_ns.is_finite() && arr.arrive_ns >= 0.0);
            assert!(arr.interval_ns > 0.0);
            if i > 0 {
                assert!(arr.arrive_ns >= a.arrivals[i - 1].arrive_ns);
            }
            if let Some(d) = arr.depart_ns {
                assert!(d >= arr.arrive_ns);
                assert!(d <= arr.arrive_ns + cfg.stream_frames as f64 * arr.interval_ns);
            }
        }
        // A different seed reshuffles the trace.
        let other = generate(&LoadGenConfig { seed: 99, ..cfg }).unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn heterogeneity_and_churn_show_up_at_scale() {
        let cfg = LoadGenConfig {
            sessions: 256,
            ..LoadGenConfig::default()
        };
        let trace = generate(&cfg).unwrap();
        let det = trace
            .arrivals
            .iter()
            .filter(|a| a.shape.task == TaskKind::Detection)
            .count();
        let low = trace
            .arrivals
            .iter()
            .filter(|a| a.shape.res == ResClass::Low)
            .count();
        let short = trace
            .arrivals
            .iter()
            .filter(|a| a.shape.gop == GopClass::Short)
            .count();
        let int8 = trace
            .arrivals
            .iter()
            .filter(|a| a.shape.compute == ComputeMode::Int8)
            .count();
        let churned = trace
            .arrivals
            .iter()
            .filter(|a| a.depart_ns.is_some())
            .count();
        for (name, n) in [
            ("detection", det),
            ("low-res", low),
            ("short-gop", short),
            ("int8", int8),
            ("churn", churned),
        ] {
            assert!(
                n > 0 && n < cfg.sessions,
                "{name}: {n}/{} — attribute never (or always) drawn",
                cfg.sessions
            );
        }
        // Homogeneous mode pins everything to the standard shape.
        let flat = generate(&LoadGenConfig {
            heterogeneous: false,
            churn_rate: 0.0,
            ..cfg
        })
        .unwrap();
        assert!(flat
            .arrivals
            .iter()
            .all(|a| a.shape == SessionShape::standard()
                && a.interval_ns == cfg.base_interval_ns
                && a.depart_ns.is_none()));
    }

    #[test]
    fn envelopes_shape_arrival_density() {
        let base = LoadGenConfig {
            sessions: 400,
            churn_rate: 0.0,
            heterogeneous: false,
            ..LoadGenConfig::default()
        };
        // A 4× spike in the middle 20% of the horizon concentrates
        // arrivals there vs the flat trace.
        let spike = generate(&LoadGenConfig {
            envelope: Envelope::Spike {
                factor: 4.0,
                start_frac: 0.4,
                end_frac: 0.6,
            },
            ..base
        })
        .unwrap();
        let flat = generate(&LoadGenConfig {
            envelope: Envelope::Flat,
            ..base
        })
        .unwrap();
        let in_window = |t: &TrafficTrace| {
            t.arrivals
                .iter()
                .filter(|a| {
                    let f = a.arrive_ns / t.horizon_ns;
                    (0.4..0.6).contains(&f)
                })
                .count()
        };
        assert!(
            in_window(&spike) > 2 * in_window(&flat).max(1),
            "spike window density {} vs flat {}",
            in_window(&spike),
            in_window(&flat)
        );
        // The spike window sees gaps ~4× tighter than the base rate, so
        // the same session count also finishes arriving sooner.
        let last = |t: &TrafficTrace| t.arrivals.last().unwrap().arrive_ns;
        assert!(last(&spike) < last(&flat));

        // Bursty and diurnal envelopes thin the quiet stretches.
        for env in [
            Envelope::Bursty {
                period_frac: 0.25,
                duty: 0.4,
                quiet_level: 0.1,
            },
            Envelope::Diurnal { trough_level: 0.2 },
        ] {
            let t = generate(&LoadGenConfig {
                envelope: env,
                ..base
            })
            .unwrap();
            assert_eq!(t.arrivals.len(), base.sessions);
            // Thinning stretches the same count over a longer window.
            assert!(last(&t) > last(&flat), "{env:?} did not thin arrivals");
        }
    }

    #[test]
    fn legacy_sweep_matches_the_historical_mapping() {
        for k in [1usize, 2, 4, 6, 8] {
            let trace = legacy_sweep(k, 6);
            assert_eq!(trace.arrivals.len(), k);
            for (i, a) in trace.arrivals.iter().enumerate() {
                // The exact request mapping serve_bench has always used.
                assert_eq!(a.stream, i % 6);
                assert_eq!(a.arrive_ns, 0.0);
                assert_eq!(a.interval_ns, 0.0, "legacy pacing is server-derived");
                assert_eq!(a.depart_ns, None);
                assert_eq!(a.shape, SessionShape::standard());
            }
        }
        assert_eq!(legacy_sweep(3, 0).arrivals[2].stream, 0);
    }
}
