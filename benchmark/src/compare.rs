//! `benchmark compare <a.json…> -- <b.json…>`: each side's median and
//! quartiles per (workload, metric), and a verdict per end-to-end metric
//! under the bounds in `BENCHMARK.json`.

use crate::stats::Spread;

/// A parsed JSON value (just enough JSON for result files and
/// `BENCHMARK.json`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    if parser.at != parser.bytes.len() {
        return Err(format!("trailing characters at byte {}", parser.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'"' | b'\\' | b'/' => escaped,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    });
                    self.at += 2;
                }
                Some(&byte) => {
                    out.push(byte);
                    self.at += 1;
                }
            }
        }
    }
}

/// How a metric moved from side A to side B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Improved,
    Unchanged,
    Worse,
    /// The runs of side A spread wider than the bound: no verdict.
    Unresolved,
}

/// How far a metric may worsen before it counts as worse.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// Deterministic values on the same inputs: any change beyond rounding.
    Exact,
    /// A share of side A's median, but never less than `floor` in the
    /// metric's unit.
    Relative { share: f64, floor: f64 },
}

/// Absolute floors under relative bounds: set-up times of a few
/// milliseconds are within timer and scheduler noise.
const FLOORS: [(&str, f64); 1] = [("setup_s", 0.002)];

/// Classify B against A.  Worse: B's median is worse by more than the bound.
/// Improved: B's median is better by more than A's quartile spread and B
/// wins at least nine in ten index-aligned pairs.  When A's own spread is
/// wider than the bound the comparison is unresolved, unless every B run
/// beats (or loses to) every A run.
pub fn classify(a: &[f64], b: &[f64], lower_is_better: bool, bound: Bound) -> Class {
    let (sa, sb) = (Spread::of(a), Spread::of(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worsening = (sb.median - sa.median) * sign;
    let (limit, noise) = match bound {
        Bound::Exact => (1e-9 * sa.median.abs(), 0.0),
        Bound::Relative { share, floor } => ((share * sa.median.abs()).max(floor), sa.q3 - sa.q1),
    };
    let every = |worse: bool| {
        b.iter()
            .all(|&x| a.iter().all(|&y| ((x - y) * sign > 0.0) == worse && x != y))
    };
    if noise > limit {
        return if every(false) {
            Class::Improved
        } else if every(true) && worsening > limit {
            Class::Worse
        } else {
            Class::Unresolved
        };
    }
    if worsening > limit {
        return Class::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(&x, &y)| (y - x) * sign < 0.0)
        .count();
    if -worsening > noise.max(limit) && wins * 10 >= pairs * 9 {
        Class::Improved
    } else {
        Class::Unchanged
    }
}

/// One result file: the workload, seed and metric values of one run.
struct Run {
    workload: String,
    seed: u64,
    metrics: Vec<(String, f64)>,
}

fn load_run(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("{path}: no \"{key}\""));
    let workload = field("workload")?.as_str().unwrap_or_default().to_string();
    let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
    let Json::Obj(entries) = field("metrics")? else {
        return Err(format!("{path}: \"metrics\" is not an object"));
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload,
        seed,
        metrics,
    })
}

/// Metrics of `BENCHMARK.json` as `(name, lower_is_better, bound share)`,
/// the share `None` for per-layer metrics, which carry no bound.
fn load_bounds(path: &str) -> Result<Vec<(String, bool, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        let Some(Json::Arr(items)) = doc.get(key) else {
            return Err(format!("{path}: no \"{key}\" list"));
        };
        for m in items {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            out.push((
                name.to_string(),
                lower,
                m.get("bound").and_then(Json::as_f64),
            ));
        }
    }
    Ok(out)
}

/// Run the comparison; `args` are the file lists split by `--`.
pub fn run(args: &[String]) -> Result<Vec<String>, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare <a.json...> -- <b.json...>")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("both sides of the comparison need at least one result file".into());
    }
    let bounds = load_bounds("BENCHMARK.json")?;
    let load = |paths: &[String]| {
        paths
            .iter()
            .map(|p| load_run(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (a_runs, b_runs) = (load(a_paths)?, load(b_paths)?);
    let mut workloads: Vec<&str> = Vec::new();
    for run in a_runs.iter().chain(&b_runs) {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    let mut lines = vec![format!(
        "{:<12} {:<36} {:>38} {:>38} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    )];
    for workload in workloads {
        let a: Vec<&Run> = a_runs.iter().filter(|r| r.workload == workload).collect();
        let b: Vec<&Run> = b_runs.iter().filter(|r| r.workload == workload).collect();
        let seeds = |runs: &[&Run]| {
            let mut s: Vec<u64> = runs.iter().map(|r| r.seed).collect();
            s.sort_unstable();
            s
        };
        let same_seeds = seeds(&a) == seeds(&b);
        for (name, lower, share) in &bounds {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1))
                    .collect()
            };
            let (av, bv) = (values(&a), values(&b));
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let verdict = match share {
                None => "-".to_string(),
                Some(share) => {
                    let bound = if name.starts_with("sim_") && same_seeds {
                        Bound::Exact
                    } else {
                        let floor = FLOORS.iter().find(|f| f.0 == name).map_or(0.0, |f| f.1);
                        Bound::Relative {
                            share: *share,
                            floor,
                        }
                    };
                    format!("{:?}", classify(&av, &bv, *lower, bound)).to_lowercase()
                }
            };
            let (sa, sb) = (Spread::of(&av), Spread::of(&bv));
            let show = |s: &Spread| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            let change = if sa.median != 0.0 {
                format!("{:+.2}%", 100.0 * (sb.median - sa.median) / sa.median.abs())
            } else {
                "-".to_string()
            };
            lines.push(format!(
                "{workload:<12} {name:<36} {:>38} {:>38} {change:>9}  {verdict}",
                show(&sa),
                show(&sb)
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_benchmark_writes() {
        let doc =
            parse(r#"{"correct": true, "n": -1.5e3, "list": [1, "a\"b", null, false], "o": {}}"#)
                .expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(
            doc.get("list"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("a\"b".into()),
                Json::Null,
                Json::Bool(false)
            ]))
        );
        assert_eq!(doc.get("o"), Some(&Json::Obj(Vec::new())));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1, 2] x").is_err());
    }

    const REL: Bound = Bound::Relative {
        share: 0.10,
        floor: 0.0,
    };

    #[test]
    fn relative_bound_classes() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        // Within 10 %: unchanged, even though slightly slower.
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(classify(&a, &b, true, REL), Class::Unchanged);
        // 20 % slower: worse.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(classify(&a, &b, true, REL), Class::Worse);
        // 20 % faster and winning every pair: improved.
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(classify(&a, &b, true, REL), Class::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(classify(&a, &b, false, REL), Class::Worse);
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_unless_every_run_wins() {
        let a = [1.0, 1.5, 0.6, 1.4, 0.7];
        let b = [1.1, 1.3, 0.9, 1.2, 1.0];
        assert_eq!(classify(&a, &b, true, REL), Class::Unresolved);
        let b = [0.5, 0.4, 0.55, 0.45, 0.5];
        assert_eq!(classify(&a, &b, true, REL), Class::Improved);
        let b = [3.0, 3.2, 2.9, 3.1, 3.0];
        assert_eq!(classify(&a, &b, true, REL), Class::Worse);
    }

    #[test]
    fn exact_bound_catches_any_worsening() {
        let a = [781.4, 790.0, 770.0];
        assert_eq!(classify(&a, &a, false, Bound::Exact), Class::Unchanged);
        let b = [781.3, 790.0, 770.0];
        assert_eq!(classify(&a, &b, false, Bound::Exact), Class::Worse);
        let b = [781.5, 790.1, 770.1];
        assert_eq!(classify(&a, &b, false, Bound::Exact), Class::Improved);
    }

    #[test]
    fn absolute_floor_absorbs_tiny_set_up_changes() {
        let a = [0.003, 0.003, 0.003];
        let b = [0.004, 0.004, 0.004];
        let floored = Bound::Relative {
            share: 0.25,
            floor: 0.002,
        };
        assert_eq!(classify(&a, &b, true, floored), Class::Unchanged);
        assert_eq!(classify(&a, &b, true, REL), Class::Worse);
        let b = [0.006, 0.006, 0.006];
        assert_eq!(classify(&a, &b, true, floored), Class::Worse);
    }
}
