//! Grid specifications: the Cartesian design space a DSE run explores.
//!
//! A [`GridSpec`] is a hand-rolled-JSON document (parsed with the same
//! [`spmlab_isa::archspec::json`] helpers as single-spec files) holding one
//! value list per architectural dimension. The raw grid is the Cartesian
//! product of the dimensions; [`GridSpec::raw_specs`] decodes points from
//! their mixed-radix index lazily, so the product is never materialised,
//! and [`GridSpec::axis`] reduces it to the *deduplicated valid axis*:
//! invalid combinations (a split L1 too small to halve, persistence on an
//! unsupported shape, …) are skipped and counted, and points whose
//! canonical specs collide — e.g. every allocation strategy of a zero-byte
//! scratchpad — collapse to their first occurrence via the canonical
//! [`spec_hash`] identity the sweep memo already uses.
//!
//! The axis order is a function of the document alone: dimensions vary in
//! a fixed order (persistence fastest, scratchpad size slowest), so every
//! shard of a grid agrees on global point indices without coordination.
//!
//! A document may instead list its axis explicitly under `"points"`, one
//! [`MemArchSpec`] document per point. That axis is taken as written:
//! order and repeats are kept and specs are not canonicalised, so a
//! figure's hand-picked axis keeps its labels and energy figures. A
//! document gives either `points` or dimension keys, never both.

use crate::checkpoint::spec_hash;
use spmlab_isa::archspec::json::{self, Value};
use spmlab_isa::archspec::{MemArchSpec, SpmAllocation, SpmSpec};
use spmlab_isa::cachecfg::{CacheConfig, WritePolicy};
use spmlab_isa::hierarchy::{MainMemoryTiming, StoreBuffer, L1};
use std::collections::BTreeSet;

/// How a grid point arranges its first-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Shape {
    /// One unified cache of the dimension's full size.
    Unified,
    /// Harvard split: the size budget halved into an instruction-only and
    /// a data-only cache (the convention of the hierarchy axis).
    Split,
}

impl L1Shape {
    fn as_str(self) -> &'static str {
        match self {
            L1Shape::Unified => "unified",
            L1Shape::Split => "split",
        }
    }

    fn parse(s: &str) -> Option<L1Shape> {
        match s {
            "unified" => Some(L1Shape::Unified),
            "split" => Some(L1Shape::Split),
            _ => None,
        }
    }
}

/// One dimension list per architectural knob. Absent keys default to a
/// single-value dimension (the paper's machine), so a document only names
/// the knobs it sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Benchmark the grid is evaluated on.
    pub benchmark: String,
    /// Scratchpad capacities in bytes (0 = no scratchpad).
    pub spm_sizes: Vec<u32>,
    /// Allocation strategies (only meaningful at non-zero capacities —
    /// zero-byte points collapse under dedup).
    pub spm_allocs: Vec<SpmAllocation>,
    /// First-level cache arrangements.
    pub l1_shapes: Vec<L1Shape>,
    /// First-level capacities in bytes (0 = no L1; split shapes halve the
    /// budget per side).
    pub l1_sizes: Vec<u32>,
    /// First-level write policies (split shapes apply write-back to the
    /// data half only — an instruction cache never sees a store).
    pub l1_policies: Vec<WritePolicy>,
    /// Second-level capacities in bytes (0 = no L2).
    pub l2_sizes: Vec<u32>,
    /// Second-level write policies.
    pub l2_policies: Vec<WritePolicy>,
    /// Main-memory burst setup latencies in cycles (0 = the paper's
    /// Table-1 SRAM-style memory).
    pub main_latencies: Vec<u64>,
    /// Store buffers in front of main memory (`None` = unbuffered).
    pub store_buffers: Vec<Option<StoreBuffer>>,
    /// Whether the persistence (first-miss) analysis runs.
    pub persistence: Vec<bool>,
    /// An explicit axis used as written instead of the dimension product
    /// (`None` for a product grid); the dimensions then keep their
    /// defaults.
    pub points: Option<Vec<MemArchSpec>>,
}

/// What [`GridSpec::axis`] did to the raw Cartesian product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridStats {
    /// Size of the raw Cartesian product.
    pub raw: usize,
    /// Raw points skipped because their spec fails validation.
    pub invalid: usize,
    /// Raw points whose canonical spec repeats an earlier point.
    pub duplicates: usize,
    /// Distinct valid points — the length of the axis.
    pub points: usize,
}

impl Default for GridSpec {
    fn default() -> GridSpec {
        GridSpec {
            benchmark: String::from("g721"),
            spm_sizes: vec![0],
            spm_allocs: vec![SpmAllocation::ProfileKnapsack],
            l1_shapes: vec![L1Shape::Unified],
            l1_sizes: vec![0],
            l1_policies: vec![WritePolicy::WriteThrough],
            l2_sizes: vec![0],
            l2_policies: vec![WritePolicy::WriteThrough],
            main_latencies: vec![0],
            store_buffers: vec![None],
            persistence: vec![false],
            points: None,
        }
    }
}

fn alloc_name(a: &SpmAllocation) -> Result<&'static str, String> {
    a.name().ok_or_else(|| {
        String::from("spm_alloc: fixed object lists are per-spec, not a grid dimension")
    })
}

fn policy_name(p: WritePolicy) -> &'static str {
    match p {
        WritePolicy::WriteThrough => "wt",
        WritePolicy::WriteBack => "wb",
    }
}

impl GridSpec {
    /// Size of the raw Cartesian product.
    ///
    /// # Errors
    ///
    /// When the product overflows `usize` — such a grid cannot be
    /// enumerated on this machine at all.
    pub fn raw_points(&self) -> Result<usize, String> {
        if let Some(points) = &self.points {
            return Ok(points.len());
        }
        [
            self.spm_sizes.len(),
            self.spm_allocs.len(),
            self.l1_shapes.len(),
            self.l1_sizes.len(),
            self.l1_policies.len(),
            self.l2_sizes.len(),
            self.l2_policies.len(),
            self.main_latencies.len(),
            self.store_buffers.len(),
            self.persistence.len(),
        ]
        .iter()
        .try_fold(1usize, |acc, &n| acc.checked_mul(n))
        .ok_or_else(|| String::from("grid size overflows usize"))
    }

    /// Structural validation: every dimension non-empty and free of
    /// repeats, the product representable. Per-point *spec* validity is
    /// not checked here — invalid combinations are expected in a product
    /// grid and are skipped (and counted) during enumeration. An explicit
    /// `points` axis must be non-empty, every spec in it valid, and the
    /// dimensions left at their defaults.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        fn dim<T: std::fmt::Debug + PartialEq>(name: &str, vals: &[T]) -> Result<(), String> {
            if vals.is_empty() {
                return Err(format!("{name}: dimension is empty"));
            }
            for (i, v) in vals.iter().enumerate() {
                if vals[..i].contains(v) {
                    return Err(format!("{name}: repeated value {v:?}"));
                }
            }
            Ok(())
        }
        if self.benchmark.is_empty() {
            return Err(String::from("benchmark: must not be empty"));
        }
        if let Some(points) = &self.points {
            let dims_default = GridSpec {
                benchmark: self.benchmark.clone(),
                points: self.points.clone(),
                ..GridSpec::default()
            } == *self;
            if !dims_default {
                return Err(String::from(
                    "points: a grid gives either `points` or dimension keys, not both",
                ));
            }
            if points.is_empty() {
                return Err(String::from("points: list is empty"));
            }
            for (i, spec) in points.iter().enumerate() {
                spec.validate().map_err(|e| format!("points[{i}]: {e}"))?;
            }
            return Ok(());
        }
        dim("spm_size", &self.spm_sizes)?;
        dim("spm_alloc", &self.spm_allocs)?;
        for a in &self.spm_allocs {
            alloc_name(a)?;
        }
        dim("l1_shape", &self.l1_shapes)?;
        dim("l1_size", &self.l1_sizes)?;
        dim("l1_policy", &self.l1_policies)?;
        dim("l2_size", &self.l2_sizes)?;
        dim("l2_policy", &self.l2_policies)?;
        dim("main_latency", &self.main_latencies)?;
        dim("store_buffer", &self.store_buffers)?;
        dim("persistence", &self.persistence)?;
        self.raw_points()?;
        Ok(())
    }

    /// Decodes raw point `r` of the Cartesian product (mixed-radix, the
    /// `persistence` dimension varying fastest). The result is *not*
    /// validated or canonicalised.
    fn spec_at(&self, r: usize) -> MemArchSpec {
        if let Some(points) = &self.points {
            return points[r].clone();
        }
        let mut rem = r;
        let mut digit = |len: usize| {
            let d = rem % len;
            rem /= len;
            d
        };
        // Fastest-varying first: reverse of the declared dimension order.
        let persistence = self.persistence[digit(self.persistence.len())];
        let store_buffer = self.store_buffers[digit(self.store_buffers.len())];
        let main_latency = self.main_latencies[digit(self.main_latencies.len())];
        let l2_policy = self.l2_policies[digit(self.l2_policies.len())];
        let l2_size = self.l2_sizes[digit(self.l2_sizes.len())];
        let l1_policy = self.l1_policies[digit(self.l1_policies.len())];
        let l1_size = self.l1_sizes[digit(self.l1_sizes.len())];
        let l1_shape = self.l1_shapes[digit(self.l1_shapes.len())];
        let spm_alloc = &self.spm_allocs[digit(self.spm_allocs.len())];
        let spm_size = self.spm_sizes[digit(self.spm_sizes.len())];

        let with_policy = |c, write_policy| CacheConfig { write_policy, ..c };
        let l1 = if l1_size == 0 {
            L1::None
        } else {
            match l1_shape {
                L1Shape::Unified => {
                    L1::Unified(with_policy(CacheConfig::unified(l1_size), l1_policy))
                }
                // The hierarchy-axis convention: halve the budget, and
                // only the data half carries the write policy.
                L1Shape::Split => L1::Split {
                    i: Some(CacheConfig::instr_only(l1_size / 2)),
                    d: Some(with_policy(CacheConfig::data_only(l1_size / 2), l1_policy)),
                },
            }
        };
        let mut main = MainMemoryTiming::dram(main_latency);
        if let Some(sb) = store_buffer {
            main = main.with_store_buffer(sb);
        }
        MemArchSpec {
            spm: (spm_size > 0).then(|| SpmSpec {
                size: spm_size,
                alloc: spm_alloc.clone(),
            }),
            l1,
            l2: (l2_size > 0).then(|| with_policy(CacheConfig::l2(l2_size), l2_policy)),
            main,
            persistence,
        }
    }

    /// Lazily enumerates every raw grid point in index order, decoding
    /// each from its mixed-radix index — the Cartesian product itself is
    /// never materialised.
    ///
    /// # Errors
    ///
    /// [`GridSpec::validate`] failures.
    pub fn raw_specs(&self) -> Result<impl Iterator<Item = MemArchSpec> + '_, String> {
        self.validate()?;
        let raw = self.raw_points()?;
        Ok((0..raw).map(move |r| self.spec_at(r)))
    }

    /// The deduplicated valid axis: one canonical [`MemArchSpec`] per
    /// distinct valid point, in grid enumeration order, plus the counts of
    /// what was skipped. Point *indices* into this axis are the global
    /// indices sharding and checkpoint records use. An explicit `points`
    /// axis is returned as written.
    ///
    /// # Errors
    ///
    /// [`GridSpec::validate`] failures.
    pub fn axis(&self) -> Result<(Vec<MemArchSpec>, GridStats), String> {
        if let Some(points) = &self.points {
            self.validate()?;
            let n = points.len();
            let stats = GridStats {
                raw: n,
                invalid: 0,
                duplicates: 0,
                points: n,
            };
            return Ok((points.clone(), stats));
        }
        let mut stats = GridStats {
            raw: self.raw_points()?,
            invalid: 0,
            duplicates: 0,
            points: 0,
        };
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut axis = Vec::new();
        for spec in self.raw_specs()? {
            if spec.validate().is_err() {
                stats.invalid += 1;
                continue;
            }
            let canon = spec.canonical();
            if seen.insert(spec_hash(&canon)) {
                axis.push(canon);
            } else {
                stats.duplicates += 1;
            }
        }
        stats.points = axis.len();
        Ok((axis, stats))
    }

    /// Renders the canonical JSON document: every dimension explicit, as a
    /// value array (range shorthands are expanded), or the `points` list.
    /// `from_json` of the result reproduces `self` exactly.
    pub fn to_json(&self) -> String {
        if let Some(points) = &self.points {
            let specs: Vec<String> = points
                .iter()
                .map(|s| format!("    {}", s.to_json().replace('\n', "\n    ")))
                .collect();
            return format!(
                "{{\n  \"benchmark\": \"{}\",\n  \"points\": [\n{}\n  ]\n}}\n",
                json::escape(&self.benchmark),
                specs.join(",\n")
            );
        }
        let nums = |v: &[u32]| -> String {
            let s: Vec<String> = v.iter().map(u32::to_string).collect();
            format!("[{}]", s.join(","))
        };
        let nums64 = |v: &[u64]| -> String {
            let s: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", s.join(","))
        };
        let strs = |v: Vec<&str>| -> String {
            let s: Vec<String> = v.iter().map(|x| format!("\"{x}\"")).collect();
            format!("[{}]", s.join(","))
        };
        let allocs: Vec<&str> = self
            .spm_allocs
            .iter()
            .map(|a| alloc_name(a).expect("validated grid has no fixed allocs"))
            .collect();
        let shapes: Vec<&str> = self.l1_shapes.iter().map(|s| s.as_str()).collect();
        let l1p: Vec<&str> = self.l1_policies.iter().copied().map(policy_name).collect();
        let l2p: Vec<&str> = self.l2_policies.iter().copied().map(policy_name).collect();
        let sbs: Vec<String> = self
            .store_buffers
            .iter()
            .map(|sb| match sb {
                None => String::from("\"none\""),
                Some(sb) => format!("{{\"depth\":{},\"drain\":{}}}", sb.depth, sb.drain_cycles),
            })
            .collect();
        let pers: Vec<String> = self.persistence.iter().map(bool::to_string).collect();
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"spm_size\": {},\n  \"spm_alloc\": {},\n  \
             \"l1_shape\": {},\n  \"l1_size\": {},\n  \"l1_policy\": {},\n  \"l2_size\": {},\n  \
             \"l2_policy\": {},\n  \"main_latency\": {},\n  \"store_buffer\": [{}],\n  \
             \"persistence\": [{}]\n}}\n",
            json::escape(&self.benchmark),
            nums(&self.spm_sizes),
            strs(allocs),
            strs(shapes),
            nums(&self.l1_sizes),
            strs(l1p),
            nums(&self.l2_sizes),
            strs(l2p),
            nums64(&self.main_latencies),
            sbs.join(","),
            pers.join(","),
        )
    }

    /// Parses a grid document. Every key is optional (absent dimensions
    /// default to the paper's machine); numeric dimensions accept either
    /// an explicit array or a range object — `{"from":64,"to":8192,
    /// "factor":2}` for geometric series, `{"from":0,"to":20,"step":5}`
    /// for arithmetic ones, both inclusive.
    ///
    /// # Errors
    ///
    /// A description of the first malformed key, plus anything
    /// [`GridSpec::validate`] rejects.
    pub fn from_json(text: &str) -> Result<GridSpec, String> {
        let v = json::parse(text)?;
        if !matches!(v, Value::Obj(_)) {
            return Err(String::from("grid document must be a JSON object"));
        }
        let known = [
            "benchmark",
            "spm_size",
            "spm_alloc",
            "l1_shape",
            "l1_size",
            "l1_policy",
            "l2_size",
            "l2_policy",
            "main_latency",
            "store_buffer",
            "persistence",
            "points",
        ];
        if let Value::Obj(map) = &v {
            for key in map.keys() {
                if !known.contains(&key.as_str()) {
                    return Err(format!("unknown grid key `{key}`"));
                }
            }
        }
        let mut grid = GridSpec::default();
        if let Some(b) = v.get("benchmark") {
            grid.benchmark = b
                .as_str()
                .ok_or("benchmark: expected a string")?
                .to_string();
        }
        if let Some(d) = v.get("points") {
            let dimension = known
                .iter()
                .find(|k| !matches!(**k, "benchmark" | "points") && v.get(k).is_some());
            if let Some(key) = dimension {
                return Err(format!(
                    "points: a grid gives either `points` or dimension keys, not both (`{key}`)"
                ));
            }
            let Value::Arr(items) = d else {
                return Err(String::from("points: expected an array of specs"));
            };
            let points = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    MemArchSpec::from_value(item).map_err(|e| format!("points[{i}]: {e}"))
                })
                .collect::<Result<_, _>>()?;
            grid.points = Some(points);
            grid.validate()?;
            return Ok(grid);
        }
        if let Some(d) = v.get("spm_size") {
            grid.spm_sizes = num_dimension("spm_size", d)?
                .into_iter()
                .map(|n| narrow_u32("spm_size", n))
                .collect::<Result<_, _>>()?;
        }
        if let Some(d) = v.get("spm_alloc") {
            grid.spm_allocs = str_dimension("spm_alloc", d, SpmAllocation::from_name)?;
        }
        if let Some(d) = v.get("l1_shape") {
            grid.l1_shapes = str_dimension("l1_shape", d, L1Shape::parse)?;
        }
        if let Some(d) = v.get("l1_size") {
            grid.l1_sizes = num_dimension("l1_size", d)?
                .into_iter()
                .map(|n| narrow_u32("l1_size", n))
                .collect::<Result<_, _>>()?;
        }
        if let Some(d) = v.get("l1_policy") {
            grid.l1_policies = str_dimension("l1_policy", d, WritePolicy::from_name)?;
        }
        if let Some(d) = v.get("l2_size") {
            grid.l2_sizes = num_dimension("l2_size", d)?
                .into_iter()
                .map(|n| narrow_u32("l2_size", n))
                .collect::<Result<_, _>>()?;
        }
        if let Some(d) = v.get("l2_policy") {
            grid.l2_policies = str_dimension("l2_policy", d, WritePolicy::from_name)?;
        }
        if let Some(d) = v.get("main_latency") {
            grid.main_latencies = num_dimension("main_latency", d)?;
        }
        if let Some(d) = v.get("store_buffer") {
            let Value::Arr(items) = d else {
                return Err(String::from("store_buffer: expected an array"));
            };
            grid.store_buffers = items
                .iter()
                .map(|item| match item {
                    Value::Str(s) if s == "none" => Ok(None),
                    Value::Obj(_) => {
                        let depth = item
                            .get("depth")
                            .and_then(Value::as_u64)
                            .ok_or("store_buffer: missing or bad `depth`")?;
                        let drain = item
                            .get("drain")
                            .and_then(Value::as_u64)
                            .ok_or("store_buffer: missing or bad `drain`")?;
                        Ok(Some(StoreBuffer::new(
                            narrow_u32("store_buffer depth", depth)?,
                            drain,
                        )))
                    }
                    _ => Err(String::from(
                        "store_buffer: expected \"none\" or {\"depth\":..,\"drain\":..}",
                    )),
                })
                .collect::<Result<_, String>>()?;
        }
        if let Some(d) = v.get("persistence") {
            let Value::Arr(items) = d else {
                return Err(String::from("persistence: expected an array"));
            };
            grid.persistence = items
                .iter()
                .map(|item| match item {
                    Value::Bool(b) => Ok(*b),
                    _ => Err(String::from("persistence: expected booleans")),
                })
                .collect::<Result<_, String>>()?;
        }
        grid.validate()?;
        Ok(grid)
    }
}

fn narrow_u32(context: &str, n: u64) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{context}: {n} exceeds u32"))
}

/// A numeric dimension: an array of non-negative integers, or an
/// inclusive range object (`factor` geometric, `step` arithmetic).
fn num_dimension(name: &str, v: &Value) -> Result<Vec<u64>, String> {
    match v {
        Value::Arr(items) => items
            .iter()
            .map(|i| {
                i.as_u64()
                    .ok_or_else(|| format!("{name}: expected non-negative integers"))
            })
            .collect(),
        Value::Obj(_) => {
            let from = v
                .get("from")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{name}: range needs `from`"))?;
            let to = v
                .get("to")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{name}: range needs `to`"))?;
            if to < from {
                return Err(format!("{name}: range `to` below `from`"));
            }
            let factor = v
                .get("factor")
                .map(|f| f.as_u64().ok_or_else(|| format!("{name}: bad `factor`")));
            let step = v
                .get("step")
                .map(|s| s.as_u64().ok_or_else(|| format!("{name}: bad `step`")));
            let mut out = Vec::new();
            match (factor, step) {
                (Some(f), None) => {
                    let f = f?;
                    if f < 2 || from == 0 {
                        return Err(format!(
                            "{name}: geometric range needs factor >= 2 and from >= 1"
                        ));
                    }
                    let mut x = from;
                    while x <= to {
                        out.push(x);
                        match x.checked_mul(f) {
                            Some(next) => x = next,
                            None => break,
                        }
                    }
                }
                (None, Some(s)) => {
                    let s = s?;
                    if s == 0 {
                        return Err(format!("{name}: arithmetic range needs step >= 1"));
                    }
                    let mut x = from;
                    while x <= to {
                        out.push(x);
                        match x.checked_add(s) {
                            Some(next) => x = next,
                            None => break,
                        }
                    }
                }
                _ => {
                    return Err(format!(
                        "{name}: range needs exactly one of `factor` or `step`"
                    ))
                }
            }
            Ok(out)
        }
        _ => Err(format!("{name}: expected an array or a range object")),
    }
}

/// A string-valued dimension decoded through `parse`.
fn str_dimension<T>(
    name: &str,
    v: &Value,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let Value::Arr(items) = v else {
        return Err(format!("{name}: expected an array of strings"));
    };
    items
        .iter()
        .map(|i| {
            let s = i
                .as_str()
                .ok_or_else(|| format!("{name}: expected strings"))?;
            parse(s).ok_or_else(|| format!("{name}: unknown value `{s}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_the_baseline_machine() {
        let g = GridSpec::default();
        let (axis, stats) = g.axis().unwrap();
        assert_eq!(stats.raw, 1);
        assert_eq!(stats.points, 1);
        assert_eq!(axis[0], MemArchSpec::uncached().canonical());
    }

    #[test]
    fn ranges_expand_inclusively() {
        let g = GridSpec::from_json(
            r#"{"l1_size":{"from":64,"to":512,"factor":2},"main_latency":{"from":0,"to":10,"step":5}}"#,
        )
        .unwrap();
        assert_eq!(g.l1_sizes, vec![64, 128, 256, 512]);
        assert_eq!(g.main_latencies, vec![0, 5, 10]);
    }

    /// Spec JSON and grid JSON read allocation names and write-policy
    /// spellings through one table each, so every spelling decodes alike
    /// in both; each writer keeps its own spelling, and each reader its
    /// own message for an unknown one.
    #[test]
    fn spec_and_grid_json_decode_spellings_alike() {
        for name in ["empty", "knapsack", "wcet", "wcet-region"] {
            let spec = format!(r#"{{"spm":{{"size":1024,"alloc":"{name}"}}}}"#);
            let alloc = MemArchSpec::from_json(&spec).unwrap().spm.unwrap().alloc;
            let grid = GridSpec::from_json(&format!(r#"{{"spm_alloc":["{name}"]}}"#)).unwrap();
            assert_eq!(grid.spm_allocs, vec![alloc.clone()], "{name}");
            assert_eq!(alloc.name(), Some(name), "both writers spell it back alike");
        }
        let (wt, wb) = (WritePolicy::WriteThrough, WritePolicy::WriteBack);
        for (name, policy, long, short) in [
            ("wt", wt, "write-through", "wt"),
            ("write-through", wt, "write-through", "wt"),
            ("wb", wb, "write-back", "wb"),
            ("write-back", wb, "write-back", "wb"),
        ] {
            let doc = format!(r#"{{"l2":{{"size":4096,"write_policy":"{name}"}}}}"#);
            let spec = MemArchSpec::from_json(&doc).unwrap();
            assert_eq!(spec.l2.as_ref().unwrap().write_policy, policy, "{name}");
            let doc = format!(r#"{{"l1_policy":["{name}"],"l2_policy":["{name}"]}}"#);
            let grid = GridSpec::from_json(&doc).unwrap();
            assert_eq!(
                (grid.l1_policies.clone(), grid.l2_policies.clone()),
                (vec![policy], vec![policy])
            );
            assert!(spec
                .to_json()
                .contains(&format!(r#""write_policy": "{long}""#)));
            assert!(grid
                .to_json()
                .contains(&format!(r#""l2_policy": ["{short}"]"#)));
        }
        let spec_err = |text: &str| MemArchSpec::from_json(text).unwrap_err().to_string();
        assert_eq!(
            spec_err(r#"{"spm":{"size":1024,"alloc":"x"}}"#),
            "spec json: spm: unknown alloc `x`"
        );
        assert_eq!(
            spec_err(r#"{"l1":{"split":{"i":{"size":512,"write_policy":"x"}}}}"#),
            "spec json: l1i: bad `write_policy`"
        );
        for (doc, text) in [
            (r#"{"spm_alloc":["x"]}"#, "spm_alloc: unknown value `x`"),
            (
                r#"{"spm_alloc":["fixed"]}"#,
                "spm_alloc: unknown value `fixed`",
            ),
            (r#"{"l1_policy":["x"]}"#, "l1_policy: unknown value `x`"),
            (r#"{"l2_policy":["WB"]}"#, "l2_policy: unknown value `WB`"),
        ] {
            assert_eq!(GridSpec::from_json(doc).unwrap_err(), text);
        }
    }

    #[test]
    fn dedup_collapses_zero_size_levels() {
        // Both allocation strategies of a zero-byte scratchpad are the
        // same canonical machine; so are both shapes of a zero-byte L1.
        let g = GridSpec::from_json(
            r#"{"spm_size":[0],"spm_alloc":["knapsack","wcet"],
                "l1_shape":["unified","split"],"l1_size":[0]}"#,
        )
        .unwrap();
        let (axis, stats) = g.axis().unwrap();
        assert_eq!(stats.raw, 4);
        assert_eq!(stats.duplicates, 3);
        assert_eq!(axis.len(), 1);
    }

    #[test]
    fn invalid_points_are_skipped_not_fatal() {
        // A 16-byte split L1 halves to 8 B < one 16-byte line: invalid.
        let g = GridSpec::from_json(r#"{"l1_shape":["split"],"l1_size":[16,256]}"#).unwrap();
        let (axis, stats) = g.axis().unwrap();
        assert_eq!(stats.invalid, 1);
        assert_eq!(axis.len(), 1);
        assert_eq!(stats.points, 1);
    }

    #[test]
    fn canonical_json_round_trips() {
        let g = GridSpec::from_json(
            r#"{"benchmark":"g721","spm_size":[0,1024],"spm_alloc":["knapsack","wcet-region"],
                "l1_shape":["unified","split"],"l1_size":{"from":256,"to":1024,"factor":2},
                "l1_policy":["wt","wb"],"l2_size":[0,4096],"main_latency":[0,10],
                "store_buffer":["none",{"depth":4,"drain":6}],"persistence":[false]}"#,
        )
        .unwrap();
        assert_eq!(GridSpec::from_json(&g.to_json()).unwrap(), g);
    }

    #[test]
    fn malformed_documents_reject() {
        for bad in [
            "",
            "[1,2]",
            r#"{"l1_size":[16384,16384]}"#,
            r#"{"l1_size":[]}"#,
            r#"{"l1_size":{"from":0,"to":8,"factor":2}}"#,
            r#"{"l1_size":{"from":2,"to":8}}"#,
            r#"{"spm_alloc":["fixed"]}"#,
            r#"{"mystery_knob":[1]}"#,
            r#"{"persistence":[1]}"#,
            r#"{"store_buffer":[{"depth":4}]}"#,
            r#"{"points":[{}],"l1_size":[256]}"#,
            r#"{"points":[]}"#,
            r#"{"points":[{"main":{"bus_bytes":0}}]}"#,
        ] {
            assert!(GridSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn points_axis_is_taken_as_written() {
        // A zero-byte L1 is not canonical, and the repeat is no duplicate:
        // an explicit axis keeps both, in order.
        let zero_l1 = MemArchSpec::single_cache(CacheConfig::unified(0));
        let points = vec![MemArchSpec::spm(256), zero_l1, MemArchSpec::spm(256)];
        let g = GridSpec {
            benchmark: String::from("adpcm"),
            points: Some(points.clone()),
            ..GridSpec::default()
        };
        let back = GridSpec::from_json(&g.to_json()).unwrap();
        assert_eq!(back, g);
        let (axis, stats) = back.axis().unwrap();
        assert_eq!(axis, points);
        assert_ne!(axis[1], axis[1].canonical());
        assert_eq!((stats.raw, stats.duplicates, stats.points), (3, 0, 3));
        let mixed = GridSpec {
            l1_sizes: vec![256],
            ..g
        };
        assert!(mixed.validate().is_err(), "points beside a dimension");
    }

    #[test]
    fn enumeration_order_is_stable() {
        let g = GridSpec::from_json(r#"{"l1_size":[0,256],"main_latency":[0,10]}"#).unwrap();
        let labels: Vec<String> = g.raw_specs().unwrap().map(|s| s.label()).collect();
        // main_latency varies faster than l1_size.
        assert_eq!(labels.len(), 4);
        assert!(labels[0] != labels[1]);
        let (axis, stats) = g.axis().unwrap();
        assert_eq!(stats.points, axis.len());
        assert_eq!(axis.len(), 4);
    }
}
