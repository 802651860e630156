//! The one table of runnable experiments, and the parsed command line that
//! selects from it.
//!
//! `cargo run --release -p vrd-bench -- <name>... [--quick]` runs the named
//! rows of [`REGISTRY`] in the order given; `all` stands for `PAPER_SET`.
//! A [`Session`] trains the shared [`Context`] at most once however many
//! rows need it, and every row hands back the same [`Output`] record, so
//! the binary has a single print/write/gate step.

use crate::context::{Context, Scale};
use crate::{
    ablation, chaos_bench, featprop, fig03, fig07, fig09, fig10, fig11, fig12, fig13, fig14, fig15,
    fig16, fig17, fleet_bench, kernels, nns_width, resilience, sensitivity, serve_bench, table02,
};
use vrd_sim::SimConfig;

/// What one experiment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The rendering, printed to stdout.
    pub text: String,
    /// Artefacts to write, as `(path, contents)`.
    pub files: Vec<(&'static str, String)>,
    /// Acceptance-gate violations; the process exits 1 if any row has one.
    pub failures: Vec<String>,
}

impl Output {
    /// A rendering that is only printed.
    fn text(text: String) -> Self {
        Self {
            text,
            files: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// A rendering that is printed and written to `text_path`, its JSON
    /// twin written to `json_path`, and the gates it was held to.
    fn artefacts(
        text: String,
        text_path: &'static str,
        json: String,
        json_path: &'static str,
        failures: Vec<String>,
    ) -> Self {
        Self {
            files: vec![(text_path, text.clone()), (json_path, json)],
            text,
            failures,
        }
    }
}

/// How a registry row runs.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// Needs neither a scale nor the trained context (`--quick` is moot).
    Fixed(fn() -> Output),
    /// Runs on the invocation's shared [`Context`].
    Suite(fn(&Context) -> Output),
}

use Runner::{Fixed, Suite};

fn resilience_output(sweep: &resilience::Resilience, failures: Vec<String>) -> Output {
    Output::artefacts(
        sweep.render(),
        "results_resilience.txt",
        sweep.to_json(),
        "results_resilience.json",
        failures,
    )
}

/// A row that prints `<module>::run(ctx).render()` under the module's name.
macro_rules! figure {
    ($module:ident) => {
        (
            stringify!($module),
            Suite(|ctx| Output::text($module::run(ctx).render())),
        )
    };
}

/// A row whose sweep owns a text and a JSON artefact and gates itself.
macro_rules! gated_sweep {
    ($name:literal, $module:ident, $text_path:literal, $json_path:literal) => {
        (
            $name,
            Suite(|ctx| {
                let sweep = $module::run(ctx);
                Output::artefacts(
                    sweep.render(),
                    $text_path,
                    sweep.to_json(),
                    $json_path,
                    sweep.acceptance_failures(),
                )
            }),
        )
    };
}

/// Every experiment this crate can run, by command-line name.
pub const REGISTRY: [(&str, Runner); 23] = [
    (
        "table02",
        Fixed(|| Output::text(table02::render(&SimConfig::default()))),
    ),
    figure!(fig03),
    (
        "fig07",
        Suite(|ctx| Output::text(fig07::run(ctx, 0).render(120))),
    ),
    figure!(fig09),
    figure!(fig10),
    figure!(fig11),
    figure!(fig12),
    figure!(fig13),
    (
        "fig13_hd",
        Fixed(|| {
            let (favos_fps, vrdann_fps, decoder_fps) = fig13::fps_hd(24);
            Output::text(format!(
                "HD 864x480 recognition rate: FAVOS {favos_fps:.1} fps -> VR-DANN-parallel {vrdann_fps:.1} fps (decoder ceiling {decoder_fps:.1} fps)"
            ))
        }),
    ),
    figure!(featprop),
    figure!(fig14),
    figure!(fig15),
    figure!(fig16),
    figure!(fig17),
    figure!(ablation),
    (
        "nns_width",
        Suite(|ctx| {
            let widths: &[usize] = match ctx.scale {
                Scale::Full => &[2, 4, 8, 16],
                Scale::Quick => &[2, 8],
            };
            Output::text(nns_width::run(ctx, widths).render())
        }),
    ),
    figure!(sensitivity),
    (
        "resilience",
        Suite(|ctx| resilience_output(&resilience::run(ctx), Vec::new())),
    ),
    (
        "resilience_smoke",
        Suite(|ctx| {
            let sweep = resilience::run_rates(ctx, &[resilience::SMOKE_RATE]);
            // The smoke row must show planted faults that were concealed,
            // not a silently clean pass.
            let leg = &sweep.rows[0].seg_bmv;
            let concealed = leg.concealment.total();
            let failures = if leg.fault_events == 0 || concealed == 0 {
                vec![format!(
                    "planted {} faults but concealed {concealed}",
                    leg.fault_events
                )]
            } else {
                Vec::new()
            };
            resilience_output(&sweep, failures)
        }),
    ),
    gated_sweep!(
        "serve",
        serve_bench,
        "results_serve.txt",
        "BENCH_serve.json"
    ),
    gated_sweep!(
        "chaos",
        chaos_bench,
        "results_chaos.txt",
        "BENCH_chaos.json"
    ),
    gated_sweep!(
        "fleet",
        fleet_bench,
        "results_fleet.txt",
        "BENCH_fleet.json"
    ),
    ("kernels", Fixed(kernels::run)),
];

/// What `all` stands for: the paper's tables and figures plus the
/// design-space extras, in the order `results_all_figures.txt` holds them.
pub(crate) const PAPER_SET: [&str; 16] = [
    "table02",
    "fig03",
    "fig07",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "featprop",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "ablation",
    "nns_width",
    "sensitivity",
];

/// One row of [`REGISTRY`]: the command-line name and how it runs.
pub type Row = (&'static str, Runner);

fn lookup(name: &str) -> Option<&'static Row> {
    REGISTRY.iter().find(|(n, _)| *n == name)
}

/// Parses the arguments after the program name into the scale and the
/// registry rows to run, `all` expanded in place.
///
/// # Errors
/// An unknown name or flag, or no name at all, is an error whose message
/// lists what can be run.
pub fn parse_args<I>(args: I) -> Result<(Scale, Vec<&'static Row>), String>
where
    I: IntoIterator<Item = String>,
{
    let mut scale = Scale::Full;
    let mut rows = Vec::new();
    for arg in args {
        if arg == "--quick" {
            scale = Scale::Quick;
        } else if arg == "all" {
            rows.extend(PAPER_SET.iter().filter_map(|name| lookup(name)));
        } else if let Some(row) = lookup(&arg) {
            rows.push(row);
        } else {
            return Err(format!("unknown argument `{arg}`\n{}", usage()));
        }
    }
    if rows.is_empty() {
        return Err(format!("nothing to run\n{}", usage()));
    }
    Ok((scale, rows))
}

fn usage() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: vrd-bench <name>... [--quick]\nnames: all {}",
        names.join(" ")
    )
}

/// One invocation's shared state: the scale, and the trained context once
/// some row has needed it.
pub struct Session {
    scale: Scale,
    ctx: Option<Context>,
}

impl Session {
    /// A session at `scale`; nothing is trained yet.
    pub fn new(scale: Scale) -> Self {
        Self { scale, ctx: None }
    }

    /// Runs one registry row, training the context on first need.
    pub fn run(&mut self, runner: Runner) -> Output {
        match runner {
            Fixed(run) => run(),
            Suite(run) => {
                let scale = self.scale;
                run(self.ctx.get_or_insert_with(|| Context::new(scale)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        let (scale, rows) = parse_args(args.iter().map(|a| a.to_string()))?;
        Ok((scale, rows.iter().map(|(name, _)| *name).collect()))
    }

    #[test]
    fn names_are_unique_and_all_is_the_paper_set_in_order() {
        for (i, (name, _)) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|(n, _)| n != name),
                "{name} is registered twice"
            );
            assert!(!name.starts_with("--") && *name != "all");
        }
        let (scale, names) = parse(&["all"]).unwrap();
        assert_eq!(scale, Scale::Full);
        assert_eq!(names, PAPER_SET, "a paper-set name is not registered");
        assert_eq!(names.len(), 16);
        assert_eq!(
            (names[0], names[8], names[15]),
            ("table02", "featprop", "sensitivity")
        );
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let (scale, names) = parse(&["fig13", "--quick", "fig13_hd"]).unwrap();
        assert_eq!(scale, Scale::Quick);
        assert_eq!(names, ["fig13", "fig13_hd"]);

        for bad in [
            &["fig13", "--quik"][..],
            &["fig99"],
            &["--hd", "fig13"],
            &["fig07", "3"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unknown argument"), "{err}");
            assert!(err.contains("names: all table02 fig03"), "{err}");
        }
        assert!(parse(&["--quick"]).unwrap_err().contains("nothing to run"));
    }

    #[test]
    fn context_free_rows_never_train() {
        for name in ["table02", "fig13_hd", "kernels"] {
            assert!(matches!(lookup(name), Some((_, Fixed(_)))), "{name}");
        }
        let mut session = Session::new(Scale::Quick);
        let (_, table02) = lookup("table02").unwrap();
        let out = session.run(*table02);
        assert!(out.text.contains("NPU compute"));
        assert!(out.files.is_empty() && out.failures.is_empty());
        assert!(session.ctx.is_none(), "table02 built a context");
    }
}
