//! Command-line options shared by every front end: `step`,
//! `step synthesize`, `step serve`, `step client` and the harness
//! binaries.
//!
//! Each front end keeps a short loop over [`Args`] for its own flags
//! and hands every other flag to the groups here, which own the rules
//! that set the engine's defaults:
//!
//! * **names** — [`Model`] parses from `ljh|mg|qd|qb|qdb` and
//!   [`GateOp`] from `or|and|xor` ([`FromStr`]); [`Model::name`] /
//!   [`GateOp::name`] print them back, and a [`Budget`] parses from its
//!   spec;
//! * [`EngineFlags`] — `--seed`, `--sat-restarts`, `--sat-preprocess`;
//! * [`BudgetFlags`] — `--budget`, `--circuit-budget`, `--qbf-budget`,
//!   including the pure-work wall-lift
//!   ([`BudgetPolicy::lift_unset_walls_for_pure_work`]);
//! * [`ReuseFlags`] — `--cache`, `--no-cache`, `--cache-cap`,
//!   `--clause-reuse`, `--no-clause-reuse`, `--clause-bank-cap`,
//!   `--cache-dir`: the one vetting of a store directory
//!   ([`vet_cache_dir`]), the one store builder and the one set of
//!   statistics lines ([`stats_lines`]).
//!
//! The `--sat-restarts` and budget values travel as text from
//! `step client` to `step serve`, so those groups keep them as given
//! until [`EngineFlags::apply`] / [`BudgetFlags::resolve`]: the server
//! resolves a submit frame through exactly the path an in-process run
//! takes.

use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use crate::cache::ResultCache;
use crate::clause_bank::ClauseBank;
use crate::spec::{Budget, BudgetPolicy, DecompConfig, GateOp, Model};
use crate::store::TieredStore;

impl Model {
    /// The command-line and wire name of the model.
    pub fn name(self) -> &'static str {
        match self {
            Model::Ljh => "ljh",
            Model::MusGroup => "mg",
            Model::QbfDisjoint => "qd",
            Model::QbfBalanced => "qb",
            Model::QbfCombined => "qdb",
        }
    }
}

impl FromStr for Model {
    type Err = String;

    fn from_str(s: &str) -> Result<Model, String> {
        Model::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown model {s:?}"))
    }
}

impl GateOp {
    /// The command-line and wire name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            GateOp::Or => "or",
            GateOp::And => "and",
            GateOp::Xor => "xor",
        }
    }
}

impl FromStr for GateOp {
    type Err = String;

    fn from_str(s: &str) -> Result<GateOp, String> {
        GateOp::ALL
            .into_iter()
            .find(|op| op.name() == s)
            .ok_or_else(|| format!("unknown op {s:?}"))
    }
}

impl FromStr for Budget {
    type Err = String;

    fn from_str(s: &str) -> Result<Budget, String> {
        Budget::parse(s)
    }
}

/// A front end's argument list with a cursor: the loop pulls flags off
/// it with [`Iterator::next`], and flag handlers pull their values.
/// Every error is the reason for a usage error (exit 2).
#[derive(Debug)]
pub struct Args {
    items: std::vec::IntoIter<String>,
}

impl Args {
    /// Wraps `args` (without the program or subcommand name).
    pub fn new(args: &[String]) -> Args {
        Args {
            items: Vec::from(args).into_iter(),
        }
    }

    /// The value following `flag`.
    ///
    /// # Errors
    ///
    /// When the arguments end first.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.items
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed.
    ///
    /// # Errors
    ///
    /// When the value is missing or does not parse.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value(flag)?;
        value.parse().map_err(|e| format!("{flag}: {e}"))
    }

    /// The positive integer following `flag`.
    ///
    /// # Errors
    ///
    /// When the value is missing, not an integer, or zero.
    pub fn positive(&mut self, flag: &str) -> Result<usize, String> {
        match self.parse(flag)? {
            0 => Err(format!("{flag} needs a positive integer")),
            n => Ok(n),
        }
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.items.next()
    }
}

/// A bad invocation: the reason (when there is one) and `usage` on
/// stderr, exit 2.
pub fn usage_error(usage: &str, why: &str) -> ! {
    if !why.is_empty() {
        eprintln!("{why}");
    }
    eprintln!("{usage}");
    std::process::exit(2)
}

/// Explicitly requested help: `usage` on stdout, exit 0 — also when
/// the reader has already gone (`step --help | head -1`).
pub fn help(usage: &str) -> ! {
    let _ = writeln!(std::io::stdout(), "{usage}");
    std::process::exit(0)
}

/// The unknown-flag error every front end reports.
pub fn unknown(flag: &str) -> String {
    format!("unknown option `{flag}`")
}

/// `--seed`, `--sat-restarts` and `--sat-preprocess`.
#[derive(Clone, Debug, Default)]
pub struct EngineFlags {
    /// `--seed`: the engine base seed ([`DecompConfig::seed`]).
    pub seed: Option<u64>,
    /// `--sat-restarts`, as given (`luby` or `ema`).
    pub sat_restarts: Option<String>,
    /// `--sat-preprocess`.
    pub sat_preprocess: bool,
}

impl EngineFlags {
    /// Takes `flag` (and its value) if it belongs to this group.
    ///
    /// # Errors
    ///
    /// A missing or malformed value.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--seed" => self.seed = Some(args.parse(flag)?),
            "--sat-restarts" => self.sat_restarts = Some(args.value(flag)?),
            "--sat-preprocess" => self.sat_preprocess = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies the flags to `config`.
    ///
    /// # Errors
    ///
    /// An unknown restart policy.
    pub fn apply(&self, config: &mut DecompConfig) -> Result<(), String> {
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(policy) = &self.sat_restarts {
            config.sat_restarts = policy.parse()?;
        }
        config.sat_preprocess = self.sat_preprocess;
        Ok(())
    }
}

/// `--budget` (per output), `--circuit-budget` and `--qbf-budget`
/// (per QBF call), each a [`Budget::parse`] spec as given.
#[derive(Clone, Debug, Default)]
pub struct BudgetFlags {
    /// `--budget`.
    pub per_output: Option<String>,
    /// `--circuit-budget`.
    pub per_circuit: Option<String>,
    /// `--qbf-budget`.
    pub per_qbf_call: Option<String>,
}

impl BudgetFlags {
    /// Takes `flag` (and its value) if it belongs to this group.
    ///
    /// # Errors
    ///
    /// A missing value.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        let scope = match flag {
            "--budget" => &mut self.per_output,
            "--circuit-budget" => &mut self.per_circuit,
            "--qbf-budget" => &mut self.per_qbf_call,
            _ => return Ok(false),
        };
        *scope = Some(args.value(flag)?);
        Ok(true)
    }

    /// `defaults` with every given scope parsed over it. A pure-work
    /// per-output budget then lifts the wall defaults of the scopes
    /// that were not given, so the run stays machine-independent
    /// ([`BudgetPolicy::lift_unset_walls_for_pure_work`]).
    ///
    /// # Errors
    ///
    /// A malformed spec, naming its flag.
    pub fn resolve(&self, defaults: BudgetPolicy) -> Result<BudgetPolicy, String> {
        let mut policy = defaults;
        for (flag, spec, scope) in [
            ("--budget", &self.per_output, &mut policy.per_output),
            (
                "--circuit-budget",
                &self.per_circuit,
                &mut policy.per_circuit,
            ),
            ("--qbf-budget", &self.per_qbf_call, &mut policy.per_qbf_call),
        ] {
            if let Some(spec) = spec {
                *scope = Budget::parse(spec).map_err(|e| format!("{flag}: {e}"))?;
            }
        }
        policy.lift_unset_walls_for_pure_work(
            self.per_qbf_call.is_some(),
            self.per_circuit.is_some(),
        );
        Ok(policy)
    }
}

/// The reuse surfaces: result cache (on by default), clause bank and
/// persistent store directory.
#[derive(Clone, Debug)]
pub struct ReuseFlags {
    /// `--cache` / `--no-cache`.
    pub cache: bool,
    /// `--cache-cap`: bound the cache (implies `--cache`).
    pub cache_cap: Option<usize>,
    /// `--clause-reuse` / `--no-clause-reuse`
    /// ([`DecompConfig::clause_reuse`]).
    pub clause_reuse: bool,
    /// `--clause-bank-cap`: bound the bank (implies `--clause-reuse`).
    pub clause_bank_cap: Option<usize>,
    /// `--cache-dir`, already vetted by [`vet_cache_dir`].
    pub cache_dir: Option<PathBuf>,
}

impl Default for ReuseFlags {
    fn default() -> Self {
        ReuseFlags {
            cache: true,
            cache_cap: None,
            clause_reuse: false,
            clause_bank_cap: None,
            cache_dir: None,
        }
    }
}

impl ReuseFlags {
    /// Takes `flag` (and its value) if it belongs to this group.
    ///
    /// # Errors
    ///
    /// A missing or malformed value, or a `--cache-dir` that fails
    /// [`vet_cache_dir`].
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--cache" => self.cache = true,
            "--no-cache" => self.cache = false,
            "--cache-cap" => {
                self.cache_cap = Some(args.positive(flag)?);
                self.cache = true;
            }
            "--clause-reuse" => self.clause_reuse = true,
            "--no-clause-reuse" => self.clause_reuse = false,
            "--clause-bank-cap" => {
                self.clause_bank_cap = Some(args.positive(flag)?);
                self.clause_reuse = true;
            }
            "--cache-dir" => self.cache_dir = Some(vet_cache_dir(Path::new(&args.value(flag)?))?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the run's one store: the result cache and clause bank the
    /// flags ask for as tier 0, plus the persistent tier loaded from
    /// `--cache-dir` when given.
    ///
    /// # Errors
    ///
    /// The directory could not be opened (it was vetted at parse time,
    /// so it changed since).
    pub fn build_store(&self) -> Result<Arc<TieredStore>, String> {
        let cache = self.cache.then(|| {
            Arc::new(match self.cache_cap {
                Some(cap) => ResultCache::with_capacity(cap),
                None => ResultCache::new(),
            })
        });
        let bank = self.clause_reuse.then(|| {
            Arc::new(match self.clause_bank_cap {
                Some(cap) => ClauseBank::with_capacity(cap),
                None => ClauseBank::new(),
            })
        });
        match &self.cache_dir {
            Some(dir) => TieredStore::with_disk(cache, bank, dir)
                .map(Arc::new)
                .map_err(|e| format!("cache dir {}: {e}", dir.display())),
            None => Ok(Arc::new(TieredStore::memory(cache, bank))),
        }
    }
}

/// Vets a `--cache-dir` argument up front: the path must be (or
/// become) a writable directory, so a bad one is a usage error before
/// any work starts, not a surprise after an hour of solving.
///
/// # Errors
///
/// The path is not a directory, cannot be created, or is not writable.
pub fn vet_cache_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() && !path.is_dir() {
        return Err(format!(
            "--cache-dir: {} is not a directory",
            path.display()
        ));
    }
    std::fs::create_dir_all(path)
        .map_err(|e| format!("--cache-dir: cannot create {}: {e}", path.display()))?;
    // An explicit write probe: permission bits lie to privileged users,
    // and read-only filesystems only fail on the actual write.
    let probe = path.join(".stepstore-probe");
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--cache-dir: {} is not writable: {e}", path.display()))?;
    let _ = std::fs::remove_file(&probe);
    Ok(path.to_owned())
}

/// Flushes the store's persistent tier. A failure (disk full,
/// directory removed mid-run) costs the next run's warm start, not the
/// answers already printed, so it only warns.
pub fn flush_store(store: &TieredStore) {
    if let Err(e) = store.flush() {
        eprintln!("warning: cache flush failed: {e}");
    }
}

/// The cache, clause-bank and store statistics lines, one per tier the
/// store has. They vary with scheduling under `--jobs`, so front ends
/// print them only when timing is on.
pub fn stats_lines(store: &TieredStore) -> Vec<String> {
    let mut lines = Vec::new();
    if let Some(cache) = store.cache() {
        lines.push(format!(
            "cache: {} hits, {} misses, {} inserts, {} evictions, {} entries",
            cache.hits(),
            cache.misses(),
            cache.inserts(),
            cache.evictions(),
            cache.len()
        ));
    }
    if let Some(bank) = store.bank() {
        lines.push(format!(
            "clause bank: {} hits ({} exact, {} cluster), {} misses, \
             {} donations, {} entries, {} probe hits, {} probe records",
            bank.hits(),
            bank.exact_hits(),
            bank.cluster_hits(),
            bank.misses(),
            bank.donations(),
            bank.len(),
            bank.probe_hits(),
            bank.probe_records()
        ));
    }
    if let Some(disk) = store.disk() {
        lines.push(format!(
            "store: {} record(s) loaded, disk hits {} results / {} clauses / \
             {} probes, {} flushed, {} corrupt",
            disk.loaded_records(),
            store.disk_result_hits(),
            store.disk_clause_hits(),
            store.disk_probe_hits(),
            disk.flushed_records(),
            disk.corrupt_records()
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn args(list: &[&str]) -> Args {
        Args::new(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn names_round_trip_and_reject_strangers() {
        for m in Model::ALL {
            assert_eq!(m.name().parse::<Model>(), Ok(m));
        }
        for op in GateOp::ALL {
            assert_eq!(op.name().parse::<GateOp>(), Ok(op));
        }
        assert_eq!(
            "QD".parse::<Model>(),
            Err("unknown model \"QD\"".to_owned())
        );
        assert!("nand".parse::<GateOp>().is_err());
    }

    #[test]
    fn groups_take_only_their_flags_and_report_bad_values() {
        let mut engine = EngineFlags::default();
        let mut a = args(&["7", "ema"]);
        assert_eq!(engine.take("--seed", &mut a), Ok(true));
        assert_eq!(engine.take("--sat-restarts", &mut a), Ok(true));
        assert_eq!(engine.take("--budget", &mut a), Ok(false));
        let mut config = DecompConfig::new(Model::Ljh);
        engine.apply(&mut config).unwrap();
        assert_eq!(config.seed, 7);
        assert_eq!(config.sat_restarts.to_string(), "ema");

        engine.sat_restarts = Some("fast".to_owned());
        assert!(engine.apply(&mut config).is_err());
        assert!(engine.take("--seed", &mut args(&["x"])).is_err());
        assert!(engine.take("--seed", &mut args(&[])).is_err());

        let mut reuse = ReuseFlags::default();
        assert!(reuse.take("--cache-cap", &mut args(&["0"])).is_err());
        reuse.take("--no-cache", &mut args(&[])).unwrap();
        reuse.take("--clause-bank-cap", &mut args(&["5"])).unwrap();
        assert!(!reuse.cache && reuse.clause_reuse);
        let store = reuse.build_store().unwrap();
        assert!(store.cache().is_none() && store.bank().is_some());
        assert_eq!(stats_lines(&store).len(), 1, "bank line only");
    }

    #[test]
    fn pure_work_budget_lifts_only_unset_walls() {
        let mut budgets = BudgetFlags::default();
        budgets.take("--budget", &mut args(&["work:200k"])).unwrap();
        let lifted = budgets.resolve(BudgetPolicy::default()).unwrap();
        assert_eq!(lifted, BudgetPolicy::work(200_000));

        budgets
            .take("--qbf-budget", &mut args(&["wall:2s"]))
            .unwrap();
        let kept = budgets.resolve(BudgetPolicy::default()).unwrap();
        assert_eq!(kept.per_qbf_call, Budget::Wall(Duration::from_secs(2)));
        assert_eq!(kept.per_circuit, Budget::Unlimited);

        budgets.per_circuit = Some("secs:4".to_owned());
        let err = budgets.resolve(BudgetPolicy::default()).unwrap_err();
        assert!(err.starts_with("--circuit-budget: "), "{err}");
    }
}
