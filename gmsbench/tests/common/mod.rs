//! Reads the repository's `BENCHMARK.json`, which sits beside the
//! benchmark's directory.

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
}

/// The string value of `key` in one flat JSON object's text.
fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &object[object.find(&pat)? + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// `(name, unit, bound)` of every metric in the `section` array; `bound` is
/// `None` where the entry has none.
pub fn metrics(section: &str) -> Vec<(String, String, Option<f64>)> {
    let text = benchmark_json();
    let body = &text[text.find(&format!("\"{section}\"")).expect("section present")..];
    let body = &body[body.find('[').expect("array opens")..body.find(']').expect("array closes")];
    body.split('}')
        .filter_map(|object| {
            let name = field(object, "name")?.to_string();
            let unit = field(object, "unit").expect("metric has a unit").to_string();
            let bound = field(object, "bound").map(|b| b.parse().expect("bound is a number"));
            Some((name, unit, bound))
        })
        .collect()
}
