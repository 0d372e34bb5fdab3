//! Declarative scenario files: schema and TOML loading.
//!
//! A scenario names a workload generator and its configuration, the
//! reduction methods to run (registry names from [`pmor::ReducerKind`]),
//! one analysis stage, and an output sink. See `docs/GUIDE.md` for the
//! full file reference; the short shape is:
//!
//! ```toml
//! [scenario]
//! name = "fig3_rc_network"
//!
//! [system]
//! generator = "rc_random"   # rc_random | rlc_bus | clock_tree | rc_mesh | power_grid
//! num_nodes = 767
//!
//! [reduce]
//! methods = ["prima", "lowrank", "multipoint"]
//! ordering = "rcm"          # | amd (fill-reducing ordering)
//!
//! [analysis]
//! kind = "frequency_sweep"  # | montecarlo | corner_sweep | yield
//!
//! [output]
//! save_roms = true
//! ```

use crate::toml::{self, Document, TomlError};
use crate::CliError;
use pmor::transient::IntegrationMethod;
use pmor::{OrderingChoice, ReducerKind};
use pmor_circuits::generators::{
    clock_tree, power_grid, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, PowerGridConfig,
    RcMeshConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::spice::parse_spice;
use pmor_circuits::{Netlist, ParametricSystem};
use pmor_variation::analysis::{AnalysisConfig, AnalysisKind, ErrorMetric};
use std::path::{Path, PathBuf};

/// A fully parsed scenario, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name; also the default bench tag and ROM file stem.
    pub name: String,
    /// Free-form description (printed in the run banner).
    pub description: String,
    /// The workload to assemble.
    pub system: SystemSpec,
    /// Reduction methods to run, by registry name (validated at parse
    /// time against [`ReducerKind`]).
    pub methods: Vec<String>,
    /// Optional method tuning; unset fields fall back to the registry's
    /// workload-sized defaults.
    pub tuning: ReduceTuning,
    /// Worker threads for the reduction stage (`[reduce] threads`):
    /// the [`pmor::ReductionContext`] factors independent expansion
    /// points concurrently, and independent method×analysis jobs of the
    /// scenario run concurrently. `0` (the default) means available
    /// parallelism, `1` forces the fully serial path. Numeric results
    /// are bitwise identical for every value.
    pub threads: usize,
    /// Fill-reducing ordering policy for every sparse factorization of
    /// the run (`[reduce] ordering`): `"rcm"` (the default, best on
    /// tree/ladder interconnect) or `"amd"` (best on mesh/grid-structured
    /// systems). Orderings change fill-in — memory and wall-clock — never
    /// solution values.
    pub ordering: OrderingChoice,
    /// The analysis stage applied to every reduced model: a registry
    /// kind plus its configuration, built and run through
    /// [`pmor_variation::analysis`].
    pub analysis: AnalysisSpec,
    /// Where results go.
    pub output: OutputSpec,
}

/// The analysis stage of a scenario: which registered analysis to run
/// ([`AnalysisKind`]) and the knobs it takes ([`AnalysisConfig`] — unset
/// fields fall back to the registry's defaults). Construction stays in
/// the registry's `AnalysisKind::build`, the CLI only parses keys.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSpec {
    /// Which registered analysis runs.
    pub kind: AnalysisKind,
    /// Its configuration (unset fields use registry defaults).
    pub config: AnalysisConfig,
}

/// The `[reduce]` tuning knobs are the registry's own
/// [`pmor::ReducerTuning`] — construction stays in core, the CLI only
/// parses the keys (see that type's docs for the key → method table).
pub use pmor::ReducerTuning as ReduceTuning;

/// The workload generator and its configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemSpec {
    /// §5.1 random RC network ([`rc_random`]).
    RcRandom(RcRandomConfig),
    /// §5.2 coupled RLC bus ([`rlc_bus`]).
    RlcBus(RlcBusConfig),
    /// §5.3 clock-tree net ([`clock_tree`]).
    ClockTree(ClockTreeConfig),
    /// Power-grid style RC mesh ([`rc_mesh`]).
    RcMesh(RcMeshConfig),
    /// Two-layer power grid ([`power_grid`]) — the 16k–65k-unknown
    /// workload class of the `large` bench tier.
    PowerGrid(PowerGridConfig),
    /// A SPICE deck parsed through [`parse_spice`] — real extracted
    /// netlists instead of synthetic generators. The deck is read and
    /// validated at scenario-parse time.
    Spice {
        /// Deck path as resolved (relative paths are anchored at the
        /// scenario file's directory).
        path: PathBuf,
        /// The parsed netlist.
        netlist: Netlist,
    },
}

impl SystemSpec {
    /// Generator family name as written in scenario files.
    pub fn generator_name(&self) -> &'static str {
        match self {
            SystemSpec::RcRandom(_) => "rc_random",
            SystemSpec::RlcBus(_) => "rlc_bus",
            SystemSpec::ClockTree(_) => "clock_tree",
            SystemSpec::RcMesh(_) => "rc_mesh",
            SystemSpec::PowerGrid(_) => "power_grid",
            SystemSpec::Spice { .. } => "spice",
        }
    }

    /// Builds the netlist and assembles the MNA descriptor system.
    pub fn assemble(&self) -> ParametricSystem {
        match self {
            SystemSpec::RcRandom(cfg) => rc_random(cfg).assemble(),
            SystemSpec::RlcBus(cfg) => rlc_bus(cfg).assemble(),
            SystemSpec::ClockTree(cfg) => clock_tree(cfg).assemble(),
            SystemSpec::RcMesh(cfg) => rc_mesh(cfg).assemble(),
            SystemSpec::PowerGrid(cfg) => power_grid(cfg).assemble(),
            SystemSpec::Spice { netlist, .. } => netlist.assemble(),
        }
    }

    /// Workload label for `BENCH_*.json` records, e.g. `rc_random(767)`.
    pub fn workload_label(&self, sys: &ParametricSystem) -> String {
        format!("{}({})", self.generator_name(), sys.dim())
    }
}

/// Output sink configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSpec {
    /// Tag of the emitted `BENCH_<tag>.json` record file.
    pub bench_tag: String,
    /// Directory receiving the record file and any saved ROMs.
    pub dir: PathBuf,
    /// Persist every reduced model as `<dir>/<name>_<method>.rom`.
    pub save_roms: bool,
    /// Use the content-addressed ROM cache (`<dir>/.pmor_cache/`):
    /// repeated runs with an unchanged (system, method, tuning) triple
    /// load the persisted ROM instead of re-reducing. On by default;
    /// set `rom_cache = false` to always re-reduce. Cached models
    /// evaluate bitwise identically to freshly reduced ones (see
    /// [`crate::cache`]).
    pub rom_cache: bool,
}

impl Scenario {
    /// Loads and validates a scenario from a TOML file.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, TOML parse errors, and schema violations
    /// (unknown generator, unregistered method, bad analysis kind, …).
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, CliError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("reading {}: {e}", path.display())))?;
        Scenario::parse_at(&text, path.parent())
            .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))
    }

    /// Parses a scenario from TOML text. Relative paths inside the
    /// scenario (e.g. a SPICE deck) resolve against the current working
    /// directory; use [`Scenario::parse_at`] (or [`Scenario::load`]) to
    /// anchor them at the scenario file instead.
    ///
    /// # Errors
    ///
    /// See [`Scenario::load`].
    pub fn parse(text: &str) -> Result<Scenario, TomlError> {
        Scenario::parse_at(text, None)
    }

    /// Parses a scenario from TOML text, resolving relative paths inside
    /// it against `base` (the directory of the scenario file).
    ///
    /// # Errors
    ///
    /// See [`Scenario::load`].
    pub fn parse_at(text: &str, base: Option<&Path>) -> Result<Scenario, TomlError> {
        let doc = toml::parse(text)?;
        for section in doc.section_names() {
            if !matches!(
                section,
                "" | "scenario" | "system" | "reduce" | "analysis" | "output"
            ) {
                return fail(format!("unknown section [{section}]"));
            }
        }
        check_keys(&doc, "", &[])?;
        check_keys(&doc, "scenario", &["name", "description"])?;
        check_keys(
            &doc,
            "reduce",
            &[
                "methods",
                "threads",
                "ordering",
                "range",
                "samples_per_axis",
                "block_moments",
                "s_order",
                "param_order",
                "rank",
                "include_transpose",
                "adaptive",
                "tolerance",
                "max_order",
                "probe_points",
                "max_points",
            ],
        )?;
        check_keys(
            &doc,
            "output",
            &["bench_tag", "dir", "save_roms", "rom_cache"],
        )?;
        let name = doc.str_req("scenario", "name")?.to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return fail(format!(
                "[scenario] name {name:?} must be nonempty and filename-safe ([A-Za-z0-9_-])"
            ));
        }
        let description = doc
            .str_opt("scenario", "description")?
            .unwrap_or("")
            .to_string();
        let system = parse_system(&doc, base)?;
        let methods = doc.str_array_req("reduce", "methods")?;
        if methods.is_empty() {
            return fail("[reduce] methods must name at least one reduction method");
        }
        for m in &methods {
            if ReducerKind::from_name(m).is_none() {
                let known: Vec<&str> = ReducerKind::ALL.iter().map(|k| k.name()).collect();
                return fail(format!(
                    "[reduce] unknown method {m:?}; registered methods: {}",
                    known.join(", ")
                ));
            }
        }
        let tuning = ReduceTuning {
            range: match doc.f64_opt("reduce", "range")? {
                Some(r) if r > 0.0 && r.is_finite() => Some(r),
                Some(r) => return fail(format!("[reduce] range must be positive, got {r}")),
                None => None,
            },
            samples_per_axis: nonzero_opt(&doc, "samples_per_axis")?,
            block_moments: nonzero_opt(&doc, "block_moments")?,
            s_order: nonzero_opt(&doc, "s_order")?,
            param_order: nonzero_opt(&doc, "param_order")?,
            rank: nonzero_opt(&doc, "rank")?,
            include_transpose: match doc.get("reduce", "include_transpose") {
                None => None,
                Some(_) => Some(doc.bool_or("reduce", "include_transpose", true)?),
            },
            adaptive: match doc.get("reduce", "adaptive") {
                None => None,
                Some(_) => Some(doc.bool_or("reduce", "adaptive", false)?),
            },
            tolerance: match doc.f64_opt("reduce", "tolerance")? {
                Some(t) if t > 0.0 && t.is_finite() => Some(t),
                Some(t) => return fail(format!("[reduce] tolerance must be positive, got {t}")),
                None => None,
            },
            max_order: nonzero_opt(&doc, "max_order")?,
            probe_points: nonzero_opt(&doc, "probe_points")?,
            max_points: nonzero_opt(&doc, "max_points")?,
        };
        // Adaptive mode is eagerly validated at parse time: the driver
        // only backs multi-shift methods, and its tuning keys are
        // meaningless (so rejected, not ignored) outside that mode.
        let adaptive_capable = ["multipoint", "fit"];
        if tuning.adaptive == Some(true) {
            for m in &methods {
                if !adaptive_capable.iter().any(|c| c.eq_ignore_ascii_case(m)) {
                    return fail(format!(
                        "[reduce] adaptive = true requires multi-shift methods \
                         ({}); {m:?} selects its expansion points statically",
                        adaptive_capable.join(", ")
                    ));
                }
            }
        } else {
            for key in ["tolerance", "max_order", "probe_points", "max_points"] {
                if doc.get("reduce", key).is_some() {
                    return fail(format!(
                        "[reduce] {key} only applies to adaptive reduction; \
                         set adaptive = true (with multipoint/fit methods) to use it"
                    ));
                }
            }
        }
        let threads = doc.usize_or("reduce", "threads", 0)?;
        let ordering = match doc.str_opt("reduce", "ordering")? {
            None => OrderingChoice::Rcm,
            Some(s) => OrderingChoice::parse(s).ok_or_else(|| TomlError {
                line: 0,
                msg: format!("[reduce] unknown ordering {s:?}; known: rcm, amd"),
            })?,
        };
        let analysis = parse_analysis(&doc)?;
        let output = OutputSpec {
            bench_tag: doc
                .str_opt("output", "bench_tag")?
                .unwrap_or(&name)
                .to_string(),
            dir: PathBuf::from(doc.str_opt("output", "dir")?.unwrap_or(".")),
            save_roms: doc.bool_or("output", "save_roms", false)?,
            rom_cache: doc.bool_or("output", "rom_cache", true)?,
        };
        Ok(Scenario {
            name,
            description,
            system,
            methods,
            tuning,
            threads,
            ordering,
            analysis,
            output,
        })
    }

    /// The path a persisted ROM of `method` goes to.
    pub fn rom_path(&self, method: &str) -> PathBuf {
        self.output.dir.join(format!("{}_{method}.rom", self.name))
    }
}

fn fail<T>(msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line: 0,
        msg: msg.into(),
    })
}

/// Rejects keys in `section` outside the `allowed` list, so a typo
/// (`instanses = 2000`) fails loudly instead of silently running with
/// the default.
fn check_keys(doc: &Document, section: &str, allowed: &[&str]) -> Result<(), TomlError> {
    let Some(table) = doc.section(section) else {
        return Ok(());
    };
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            let shown = if section.is_empty() {
                "top level".to_string()
            } else {
                format!("[{section}]")
            };
            return fail(format!(
                "{shown}: unknown key `{key}`; allowed keys: {}",
                if allowed.is_empty() {
                    "(none)".to_string()
                } else {
                    allowed.join(", ")
                }
            ));
        }
    }
    Ok(())
}

/// An optional `[reduce]` integer that must be ≥ 1 when present.
fn nonzero_opt(doc: &Document, key: &str) -> Result<Option<usize>, TomlError> {
    match doc.get("reduce", key) {
        None => Ok(None),
        Some(_) => {
            let v = doc.usize_or("reduce", key, 0)?;
            if v == 0 {
                fail(format!("[reduce] {key} must be at least 1"))
            } else {
                Ok(Some(v))
            }
        }
    }
}

fn parse_system(doc: &Document, base: Option<&Path>) -> Result<SystemSpec, TomlError> {
    let generator = doc.str_req("system", "generator")?;
    let sec = "system";
    match generator {
        "spice" => check_keys(doc, sec, &["generator", "path"]),
        "rc_random" => check_keys(
            doc,
            sec,
            &[
                "generator",
                "num_nodes",
                "num_params",
                "extra_resistor_fraction",
                "coupling_cap_fraction",
                "sensitivity_density",
                "spatially_correlated",
                "seed",
            ],
        ),
        "rlc_bus" => check_keys(
            doc,
            sec,
            &[
                "generator",
                "lines",
                "segments",
                "line_res",
                "line_ind",
                "line_cap",
                "coupling_ratio",
            ],
        ),
        "clock_tree" => check_keys(
            doc,
            sec,
            &[
                "generator",
                "num_nodes",
                "m7_below_depth",
                "m6_below_depth",
                "driver_res",
                "sink_cap",
                "seed",
            ],
        ),
        "rc_mesh" => check_keys(
            doc,
            sec,
            &[
                "generator",
                "cols",
                "rows",
                "seg_res",
                "node_cap",
                "num_regions",
                "num_pads",
                "seed",
            ],
        ),
        "power_grid" => check_keys(
            doc,
            sec,
            &[
                "generator",
                "cols",
                "rows",
                "pitch",
                "seg_res",
                "strap_res",
                "via_res",
                "node_cap",
                "num_regions",
                "num_pads",
                "seed",
            ],
        ),
        _ => Ok(()),
    }?;
    match generator {
        "rc_random" => {
            let d = RcRandomConfig::default();
            Ok(SystemSpec::RcRandom(RcRandomConfig {
                num_nodes: doc.usize_or(sec, "num_nodes", d.num_nodes)?,
                num_params: doc.usize_or(sec, "num_params", d.num_params)?,
                extra_resistor_fraction: doc.f64_or(
                    sec,
                    "extra_resistor_fraction",
                    d.extra_resistor_fraction,
                )?,
                coupling_cap_fraction: doc.f64_or(
                    sec,
                    "coupling_cap_fraction",
                    d.coupling_cap_fraction,
                )?,
                sensitivity_density: doc.f64_or(
                    sec,
                    "sensitivity_density",
                    d.sensitivity_density,
                )?,
                spatially_correlated: doc.bool_or(
                    sec,
                    "spatially_correlated",
                    d.spatially_correlated,
                )?,
                seed: doc.u64_or(sec, "seed", d.seed)?,
            }))
        }
        "rlc_bus" => {
            let d = RlcBusConfig::default();
            Ok(SystemSpec::RlcBus(RlcBusConfig {
                lines: doc.usize_or(sec, "lines", d.lines)?,
                segments: doc.usize_or(sec, "segments", d.segments)?,
                line_res: doc.f64_or(sec, "line_res", d.line_res)?,
                line_ind: doc.f64_or(sec, "line_ind", d.line_ind)?,
                line_cap: doc.f64_or(sec, "line_cap", d.line_cap)?,
                coupling_ratio: doc.f64_or(sec, "coupling_ratio", d.coupling_ratio)?,
            }))
        }
        "clock_tree" => {
            let d = ClockTreeConfig::default();
            Ok(SystemSpec::ClockTree(ClockTreeConfig {
                num_nodes: doc.usize_or(sec, "num_nodes", d.num_nodes)?,
                m7_below_depth: doc.usize_or(sec, "m7_below_depth", d.m7_below_depth)?,
                m6_below_depth: doc.usize_or(sec, "m6_below_depth", d.m6_below_depth)?,
                driver_res: doc.f64_or(sec, "driver_res", d.driver_res)?,
                sink_cap: doc.f64_or(sec, "sink_cap", d.sink_cap)?,
                seed: doc.u64_or(sec, "seed", d.seed)?,
            }))
        }
        "rc_mesh" => {
            let d = RcMeshConfig::default();
            Ok(SystemSpec::RcMesh(RcMeshConfig {
                cols: doc.usize_or(sec, "cols", d.cols)?,
                rows: doc.usize_or(sec, "rows", d.rows)?,
                seg_res: doc.f64_or(sec, "seg_res", d.seg_res)?,
                node_cap: doc.f64_or(sec, "node_cap", d.node_cap)?,
                num_regions: doc.usize_or(sec, "num_regions", d.num_regions)?,
                num_pads: doc.usize_or(sec, "num_pads", d.num_pads)?,
                seed: doc.u64_or(sec, "seed", d.seed)?,
            }))
        }
        "power_grid" => {
            let d = PowerGridConfig::default();
            let cfg = PowerGridConfig {
                cols: doc.usize_or(sec, "cols", d.cols)?,
                rows: doc.usize_or(sec, "rows", d.rows)?,
                pitch: doc.usize_or(sec, "pitch", d.pitch)?,
                seg_res: doc.f64_or(sec, "seg_res", d.seg_res)?,
                strap_res: doc.f64_or(sec, "strap_res", d.strap_res)?,
                via_res: doc.f64_or(sec, "via_res", d.via_res)?,
                node_cap: doc.f64_or(sec, "node_cap", d.node_cap)?,
                num_regions: doc.usize_or(sec, "num_regions", d.num_regions)?,
                num_pads: doc.usize_or(sec, "num_pads", d.num_pads)?,
                seed: doc.u64_or(sec, "seed", d.seed)?,
            };
            // The generator's own invariants, checked at parse time so a
            // bad scenario is a loud error, not a later panic.
            if cfg.cols < 2 || cfg.rows < 2 {
                return fail("[system] power_grid needs cols >= 2 and rows >= 2");
            }
            if cfg.pitch < 2 || cfg.rows.div_ceil(cfg.pitch) < 2 || cfg.cols.div_ceil(cfg.pitch) < 2
            {
                return fail(format!(
                    "[system] power_grid pitch {} must be >= 2 and leave a 2x2 global grid",
                    cfg.pitch
                ));
            }
            if !matches!(cfg.num_regions, 1 | 2 | 4) {
                return fail("[system] power_grid num_regions must be 1, 2 or 4");
            }
            if !(1..=4).contains(&cfg.num_pads) {
                return fail("[system] power_grid num_pads must be 1..=4");
            }
            Ok(SystemSpec::PowerGrid(cfg))
        }
        "spice" => {
            let rel = doc.str_req(sec, "path")?;
            let path = match base {
                Some(base) => base.join(rel),
                None => PathBuf::from(rel),
            };
            let deck = std::fs::read_to_string(&path).map_err(|e| TomlError {
                line: 0,
                msg: format!("[system] reading SPICE deck {}: {e}", path.display()),
            })?;
            let netlist = parse_spice(&deck).map_err(|e| TomlError {
                line: 0,
                msg: format!("[system] {}: {e}", path.display()),
            })?;
            if netlist.inputs().is_empty() || netlist.outputs().is_empty() {
                return fail(format!(
                    "[system] {}: deck declares no ports — add *PORT/*INPUT/*OUTPUT cards",
                    path.display()
                ));
            }
            Ok(SystemSpec::Spice { path, netlist })
        }
        other => fail(format!(
            "[system] unknown generator {other:?}; known: rc_random, rlc_bus, clock_tree, \
             rc_mesh, power_grid, spice"
        )),
    }
}

/// Parses the `[analysis]` section into a registry kind plus its
/// configuration. Keys are validated per kind (typos fail loudly), the
/// knob *values* are validated by the registry itself: the parsed config
/// is eagerly passed through [`AnalysisKind::build`] so a scenario that
/// cannot build is rejected at parse time with the registry's own error.
fn parse_analysis(doc: &Document) -> Result<AnalysisSpec, TomlError> {
    let sec = "analysis";
    let kind_name = doc.str_opt(sec, "kind")?.unwrap_or("frequency_sweep");
    let Some(kind) = AnalysisKind::from_name(kind_name) else {
        let known: Vec<&str> = AnalysisKind::ALL.iter().map(|k| k.name()).collect();
        return fail(format!(
            "[analysis] unknown kind {kind_name:?}; known: {}",
            known.join(", ")
        ));
    };
    match kind {
        // Every kind accepts `threads`: the whole analysis layer runs on
        // the batched engine, so the worker knob is universal.
        AnalysisKind::FrequencySweep => check_keys(
            doc,
            sec,
            &[
                "kind",
                "threads",
                "f_min_hz",
                "f_max_hz",
                "points",
                "parameters",
                "compare_full",
            ],
        ),
        // The metric-specific key (`num_poles` vs `freqs_hz`) is only
        // accepted under its own metric, so a mismatched key fails loudly
        // instead of being silently ignored. An unknown metric gets the
        // union here; parse_metric then reports the better error.
        AnalysisKind::MonteCarlo => {
            const COMMON: [&str; 6] = ["kind", "instances", "sigma", "seed", "threads", "metric"];
            let metric_keys: &[&str] = match doc.str_opt(sec, "metric")?.unwrap_or("poles") {
                "poles" => &["num_poles"],
                "transfer" => &["freqs_hz"],
                _ => &["num_poles", "freqs_hz"],
            };
            let allowed: Vec<&str> = COMMON.iter().chain(metric_keys).copied().collect();
            check_keys(doc, sec, &allowed)
        }
        AnalysisKind::CornerSweep => check_keys(
            doc,
            sec,
            &[
                "kind",
                "threads",
                "param_a",
                "param_b",
                "lo",
                "hi",
                "points_per_axis",
                "metric",
                "freqs_hz",
            ],
        ),
        AnalysisKind::Yield => check_keys(
            doc,
            sec,
            &[
                "kind",
                "threads",
                "instances",
                "sigma",
                "seed",
                "min_pole_rad_s",
                "margin",
            ],
        ),
        AnalysisKind::Transient => check_keys(
            doc,
            sec,
            &[
                "kind",
                "threads",
                "instances",
                "sigma",
                "seed",
                "t_stop",
                "steps",
                "rise",
                "integrator",
            ],
        ),
    }?;
    let integrator = match doc.str_opt(sec, "integrator")? {
        None => None,
        Some(name) => match name {
            "trapezoidal" => Some(IntegrationMethod::Trapezoidal),
            "backward_euler" => Some(IntegrationMethod::BackwardEuler),
            other => {
                return fail(format!(
                    "[analysis] unknown integrator {other:?}; known: trapezoidal, backward_euler"
                ))
            }
        },
    };
    let config = AnalysisConfig {
        instances: usize_opt(doc, sec, "instances")?,
        sigma: doc.f64_opt(sec, "sigma")?,
        seed: u64_opt(doc, sec, "seed")?,
        threads: usize_opt(doc, sec, "threads")?,
        metric: match kind {
            AnalysisKind::MonteCarlo => Some(parse_metric(doc, 3)?),
            AnalysisKind::CornerSweep => Some(parse_metric(doc, 1)?),
            _ => None,
        },
        f_min_hz: doc.f64_opt(sec, "f_min_hz")?,
        f_max_hz: doc.f64_opt(sec, "f_max_hz")?,
        points: usize_opt(doc, sec, "points")?,
        parameters: doc.f64_array_opt(sec, "parameters")?,
        compare_full: match doc.get(sec, "compare_full") {
            None => None,
            Some(_) => Some(doc.bool_or(sec, "compare_full", true)?),
        },
        param_a: usize_opt(doc, sec, "param_a")?,
        param_b: usize_opt(doc, sec, "param_b")?,
        lo: doc.f64_opt(sec, "lo")?,
        hi: doc.f64_opt(sec, "hi")?,
        points_per_axis: usize_opt(doc, sec, "points_per_axis")?,
        min_pole_rad_s: doc.f64_opt(sec, "min_pole_rad_s")?,
        margin: doc.f64_opt(sec, "margin")?,
        t_stop: doc.f64_opt(sec, "t_stop")?,
        steps: usize_opt(doc, sec, "steps")?,
        rise: doc.f64_opt(sec, "rise")?,
        integrator,
    };
    // Eager build: knob-value violations (negative sigma, inverted
    // bands, …) surface here, with the registry as the single source of
    // validation rules.
    if let Err(e) = kind.build(&config) {
        return fail(format!("[analysis] {e}"));
    }
    Ok(AnalysisSpec { kind, config })
}

/// Parses the shared `metric` / `num_poles` / `freqs_hz` keys of the
/// Monte-Carlo and corner-sweep analyses.
fn parse_metric(doc: &Document, default_poles: usize) -> Result<ErrorMetric, TomlError> {
    let sec = "analysis";
    match doc.str_opt(sec, "metric")?.unwrap_or("poles") {
        "poles" => Ok(ErrorMetric::Poles {
            num_poles: doc.usize_or(sec, "num_poles", default_poles)?.max(1),
        }),
        "transfer" => {
            let freqs_hz = doc
                .f64_array_opt(sec, "freqs_hz")?
                .unwrap_or_else(|| vec![1e8, 1e9, 5e9]);
            if freqs_hz.is_empty() || freqs_hz.iter().any(|&f| f <= 0.0 || !f.is_finite()) {
                return fail("[analysis] freqs_hz must be nonempty and positive");
            }
            Ok(ErrorMetric::Transfer { freqs_hz })
        }
        other => fail(format!(
            "[analysis] unknown metric {other:?}; known: poles, transfer"
        )),
    }
}

/// An optional `[analysis]` unsigned integer.
fn usize_opt(doc: &Document, sec: &str, key: &str) -> Result<Option<usize>, TomlError> {
    match doc.get(sec, key) {
        None => Ok(None),
        Some(_) => Ok(Some(doc.usize_or(sec, key, 0)?)),
    }
}

/// An optional `[analysis]` u64 (seeds).
fn u64_opt(doc: &Document, sec: &str, key: &str) -> Result<Option<u64>, TomlError> {
    match doc.get(sec, key) {
        None => Ok(None),
        Some(_) => Ok(Some(doc.u64_or(sec, key, 0)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "tiny"

[system]
generator = "clock_tree"
num_nodes = 20

[reduce]
methods = ["prima"]
"#;

    #[test]
    fn minimal_scenario_fills_defaults() {
        let sc = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(sc.name, "tiny");
        assert_eq!(sc.methods, vec!["prima".to_string()]);
        assert_eq!(sc.analysis.kind, AnalysisKind::FrequencySweep);
        // Unset knobs stay unset: the registry's defaults apply at build
        // time, not parse time, so they can never drift.
        assert_eq!(sc.analysis.config, AnalysisConfig::default());
        assert_eq!(sc.output.bench_tag, "tiny");
        assert!(!sc.output.save_roms);
        assert!(sc.output.rom_cache, "ROM cache is on by default");
        assert_eq!(sc.threads, 0, "reduction threads default to auto");
        assert_eq!(sc.rom_path("prima"), PathBuf::from("./tiny_prima.rom"));
        match &sc.system {
            SystemSpec::ClockTree(cfg) => assert_eq!(cfg.num_nodes, 20),
            other => panic!("wrong system: {other:?}"),
        }
    }

    #[test]
    fn every_analysis_kind_parses() {
        for (kind, extra, check) in [
            (
                "montecarlo",
                "instances = 7\nsigma = 0.05\nmetric = \"transfer\"\nfreqs_hz = [1e8]",
                "mc-transfer",
            ),
            ("montecarlo", "num_poles = 2", "mc-poles"),
            (
                "corner_sweep",
                "param_a = 0\nparam_b = 2\npoints_per_axis = 3",
                "corner",
            ),
            // `threads` must be accepted by every kind — the whole
            // analysis layer runs on the batched engine.
            (
                "yield",
                "margin = 0.95\ninstances = 10\nthreads = 1",
                "yield",
            ),
        ] {
            let text = format!("{MINIMAL}\n[analysis]\nkind = \"{kind}\"\n{extra}\n");
            let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("{check}: {e}"));
            assert_eq!(sc.analysis.kind.name(), kind, "{check}");
            match check {
                "mc-transfer" => {
                    assert_eq!(sc.analysis.config.instances, Some(7));
                    assert_eq!(
                        sc.analysis.config.metric,
                        Some(ErrorMetric::Transfer {
                            freqs_hz: vec![1e8]
                        })
                    );
                }
                "mc-poles" => {
                    assert_eq!(
                        sc.analysis.config.metric,
                        Some(ErrorMetric::Poles { num_poles: 2 })
                    );
                }
                "corner" => assert_eq!(sc.analysis.config.param_b, Some(2)),
                "yield" => {
                    assert_eq!(sc.analysis.config.margin, Some(0.95));
                    assert_eq!(sc.analysis.config.threads, Some(1));
                }
                other => panic!("unknown check {other}"),
            }
        }
    }

    #[test]
    fn rejects_schema_violations() {
        for (mutation, what) in [
            (MINIMAL.replace("\"prima\"", "\"bogus\""), "unknown method"),
            (MINIMAL.replace("clock_tree", "spice"), "unknown generator"),
            (
                MINIMAL.replace("[reduce]\nmethods = [\"prima\"]", ""),
                "missing methods",
            ),
            (MINIMAL.replace("\"tiny\"", "\"has space\""), "unsafe name"),
            (
                format!("{MINIMAL}\n[analysis]\nkind = \"novel\""),
                "unknown analysis",
            ),
            (format!("{MINIMAL}\n[extra]\nx = 1"), "unknown section"),
            (
                format!("{MINIMAL}\n[analysis]\nf_min_hz = 1e10\nf_max_hz = 1e7"),
                "inverted range",
            ),
            (
                format!("{MINIMAL}\n[analysis]\nkind = \"yield\"\ninstanses = 2000"),
                "typoed analysis key",
            ),
            (
                MINIMAL.replace("num_nodes = 20", "num_nodez = 20"),
                "typoed system key",
            ),
            (
                format!("{MINIMAL}\n[analysis]\nkind = \"yield\"\nmin_pole_rad_s = -1"),
                "negative yield threshold",
            ),
            (
                format!("{MINIMAL}\n[analysis]\nkind = \"corner_sweep\"\nnum_poles = 5"),
                "num_poles on corner sweep (only the dominant pole is tracked)",
            ),
            (
                format!(
                    "{MINIMAL}\n[analysis]\nkind = \"montecarlo\"\nmetric = \"poles\"\nfreqs_hz = [2e10]"
                ),
                "freqs_hz under the poles metric (would be silently ignored)",
            ),
            (
                format!(
                    "{MINIMAL}\n[analysis]\nkind = \"montecarlo\"\nmetric = \"transfer\"\nnum_poles = 2"
                ),
                "num_poles under the transfer metric (would be silently ignored)",
            ),
            (
                format!("{MINIMAL}\n[output]\nsave_romz = true"),
                "typoed output key",
            ),
            (
                MINIMAL.replace("methods = [\"prima\"]", "methods = [\"prima\"]\nadaptive = true"),
                "adaptive with a single-point method (prima cannot move its expansion point)",
            ),
            (
                MINIMAL.replace(
                    "methods = [\"prima\"]",
                    "methods = [\"multipoint\", \"lowrank\"]\nadaptive = true",
                ),
                "adaptive with a mixed method list containing a non-adaptive method",
            ),
            (
                MINIMAL.replace(
                    "methods = [\"prima\"]",
                    "methods = [\"prima\"]\ntolerance = 1e-6",
                ),
                "tolerance without adaptive = true (would be silently ignored)",
            ),
            (
                MINIMAL.replace("methods = [\"prima\"]", "methods = [\"prima\"]\nmax_order = 32"),
                "max_order without adaptive = true (would be silently ignored)",
            ),
            (
                MINIMAL.replace(
                    "methods = [\"prima\"]",
                    "methods = [\"prima\"]\nprobe_points = 9",
                ),
                "probe_points without adaptive = true (would be silently ignored)",
            ),
            (
                MINIMAL.replace("methods = [\"prima\"]", "methods = [\"prima\"]\nmax_points = 4"),
                "max_points without adaptive = true (would be silently ignored)",
            ),
            (
                MINIMAL.replace(
                    "methods = [\"prima\"]",
                    "methods = [\"multipoint\"]\nadaptive = true\ntolerance = 0.0",
                ),
                "zero tolerance",
            ),
            (
                MINIMAL.replace(
                    "methods = [\"prima\"]",
                    "methods = [\"multipoint\"]\nadaptive = true\ntolerance = -1e-6",
                ),
                "negative tolerance",
            ),
            (
                MINIMAL.replace(
                    "methods = [\"prima\"]",
                    "methods = [\"multipoint\"]\nadaptive = true\nmax_order = 0",
                ),
                "zero max_order",
            ),
        ] {
            assert!(Scenario::parse(&mutation).is_err(), "{what} accepted");
        }
    }

    #[test]
    fn adaptive_tuning_parses_for_multi_shift_methods() {
        let text = MINIMAL.replace(
            "methods = [\"prima\"]",
            "methods = [\"multipoint\", \"fit\"]\nadaptive = true\ntolerance = 1e-6\n\
             max_order = 64\nprobe_points = 17\nmax_points = 6",
        );
        let sc = Scenario::parse(&text).unwrap();
        assert_eq!(sc.tuning.adaptive, Some(true));
        assert_eq!(sc.tuning.tolerance, Some(1e-6));
        assert_eq!(sc.tuning.max_order, Some(64));
        assert_eq!(sc.tuning.probe_points, Some(17));
        assert_eq!(sc.tuning.max_points, Some(6));
        // `adaptive = true` alone is fine: every budget falls back to the
        // registry defaults at build time.
        let bare = MINIMAL.replace(
            "methods = [\"prima\"]",
            "methods = [\"multipoint\"]\nadaptive = true",
        );
        let sc = Scenario::parse(&bare).unwrap();
        assert_eq!(sc.tuning.adaptive, Some(true));
        assert_eq!(sc.tuning.tolerance, None);
    }

    #[test]
    fn threads_and_rom_cache_knobs_parse() {
        let text = MINIMAL.replace(
            "methods = [\"prima\"]",
            "methods = [\"prima\"]\nthreads = 1",
        ) + "\n[output]\nrom_cache = false\n";
        let sc = Scenario::parse(&text).unwrap();
        assert_eq!(sc.threads, 1);
        assert!(!sc.output.rom_cache);
        // Typos in the new keys fail loudly like every other key.
        assert!(Scenario::parse(&format!("{MINIMAL}\n[output]\nrom_cach = false")).is_err());
        assert!(Scenario::parse(&MINIMAL.replace(
            "methods = [\"prima\"]",
            "threadz = 2\nmethods = [\"prima\"]"
        ))
        .is_err());
    }

    #[test]
    fn ordering_knob_parses_and_rejects_unknown_policies() {
        let sc = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(sc.ordering, OrderingChoice::Rcm, "default stays RCM");
        let with = |spelled: &str| {
            MINIMAL.replace(
                "methods = [\"prima\"]",
                &format!("methods = [\"prima\"]\nordering = \"{spelled}\""),
            )
        };
        for (spelled, expected) in [("rcm", OrderingChoice::Rcm), ("amd", OrderingChoice::Amd)] {
            assert_eq!(Scenario::parse(&with(spelled)).unwrap().ordering, expected);
        }
        for bad in ["metis", "auto", "natural"] {
            let err = Scenario::parse(&with(bad)).unwrap_err().to_string();
            assert!(err.contains("unknown ordering"), "{err}");
            assert!(err.contains("known: rcm, amd"), "{err}");
        }
    }

    #[test]
    fn power_grid_scenario_parses_and_validates() {
        let text = MINIMAL.replace(
            "generator = \"clock_tree\"\nnum_nodes = 20",
            "generator = \"power_grid\"\nrows = 16\ncols = 16\npitch = 4",
        );
        let sc = Scenario::parse(&text).unwrap();
        match &sc.system {
            SystemSpec::PowerGrid(cfg) => {
                assert_eq!((cfg.rows, cfg.cols, cfg.pitch), (16, 16, 4));
                assert_eq!(sc.system.generator_name(), "power_grid");
                // 16x16 fine + 4x4 coarse nodes.
                assert_eq!(sc.system.assemble().dim(), 256 + 16);
            }
            other => panic!("wrong system: {other:?}"),
        }
        for (old, new) in [
            ("pitch = 4", "pitch = 16"),
            ("pitch = 4", "pitch = 1"),
            ("rows = 16", "rows = 1"),
            ("pitch = 4", "pitch = 4\nnum_regions = 3"),
            ("pitch = 4", "pitch = 4\nnum_pads = 9"),
            ("pitch = 4", "pitch = 4\nstrap_rez = 1.0"),
        ] {
            assert!(
                Scenario::parse(&text.replace(old, new)).is_err(),
                "{new:?} accepted"
            );
        }
    }

    #[test]
    fn methods_list_preserves_order() {
        let text = MINIMAL.replace(
            "methods = [\"prima\"]",
            "methods = [\"lowrank\", \"prima\", \"fit\"]",
        );
        let sc = Scenario::parse(&text).unwrap();
        assert_eq!(sc.methods, vec!["lowrank", "prima", "fit"]);
    }
}
