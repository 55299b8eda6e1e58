//! Plan serialization: build offline, load at serve time.
//!
//! The on-disk form is JSON via `ustencil-trace`'s dependency-free writer.
//! Integer arrays (`row_ptr`, `cols`) serialize as plain JSON numbers
//! (exact below 2^53); every floating-point value — `h` and the packed
//! `weights` — is hex-encoded as its IEEE-754 bit pattern (16 lowercase hex
//! digits per `f64`), because a decimal round trip through the JSON number
//! writer is not bit-faithful (e.g. `-0.0` loses its sign bit on the
//! integer fast path). A serialized-then-loaded plan is therefore
//! byte-identical in its weights, which the equivalence property test
//! asserts.

use crate::apply::MAX_MODES;
use crate::plan::EvalPlan;
use std::fmt::Write as _;
use std::time::Duration;
use ustencil_core::Metrics;
use ustencil_trace::Json;

/// Format tag of the serialized plan schema. `v3` is the bare CSR (rows in
/// grid-point order, columns as element ids); documents of earlier
/// generations are rejected, since plans are cheap to regenerate and none
/// are stored long-term in this repository.
pub const FORMAT_TAG: &str = "ustencil-plan/v3";

fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("invalid f64 hex '{s}'"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| e.to_string())
}

fn get<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn get_usize(doc: &Json, key: &str) -> Result<usize, String> {
    get(doc, key)?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| format!("'{key}' is not a non-negative integer"))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    get(doc, key)?
        .as_str()
        .ok_or_else(|| format!("'{key}' is not a string"))
}

impl EvalPlan {
    /// Serializes the plan to a JSON document (format tag
    /// `ustencil-plan/v3`). Build-time observability (wall, spans, metrics) is
    /// deliberately not serialized: a loaded plan reports a zero build
    /// cost, because its build was paid offline.
    pub fn to_json(&self) -> Json {
        let mut weights_hex = String::with_capacity(self.weights.len() * 16);
        for w in &self.weights {
            let _ = write!(weights_hex, "{:016x}", w.to_bits());
        }
        Json::object()
            .set("format", FORMAT_TAG)
            .set("degree", self.degree)
            .set("smoothness", self.smoothness)
            .set("n_modes", self.n_modes)
            .set("n_elements", self.n_elements)
            .set("h", format!("{:016x}", self.h.to_bits()))
            .set(
                "row_ptr",
                self.row_ptr
                    .iter()
                    .map(|&x| Json::Num(x as f64))
                    .collect::<Vec<_>>(),
            )
            .set(
                "cols",
                self.cols
                    .iter()
                    .map(|&x| Json::Num(x as f64))
                    .collect::<Vec<_>>(),
            )
            .set("weights", weights_hex)
    }

    /// Serializes to pretty-printed JSON text.
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Loads a plan from JSON text, validating the format tag and every
    /// structural invariant (row-pointer monotonicity, array lengths,
    /// column bounds, mode count within the row kernel's lane budget).
    pub fn from_json(text: &str) -> Result<EvalPlan, String> {
        let doc = Json::parse(text)?;
        let format = get_str(&doc, "format")?;
        if format != FORMAT_TAG {
            return Err(format!(
                "unsupported plan format '{format}' (expected '{FORMAT_TAG}')"
            ));
        }
        let degree = get_usize(&doc, "degree")?;
        let smoothness = get_usize(&doc, "smoothness")?;
        let n_modes = get_usize(&doc, "n_modes")?;
        let n_elements = get_usize(&doc, "n_elements")?;
        if n_modes > MAX_MODES {
            return Err(format!(
                "n_modes {n_modes} exceeds the row kernel's {MAX_MODES}-mode budget"
            ));
        }
        // `degree` is outside input; a consistent one is below its mode
        // count, which also keeps the product from overflowing.
        if degree >= n_modes || n_modes != (degree + 1) * (degree + 2) / 2 {
            return Err(format!(
                "n_modes {n_modes} inconsistent with degree {degree}"
            ));
        }
        let h = f64_from_hex(get_str(&doc, "h")?)?;
        if !(h.is_finite() && h > 0.0) {
            return Err(format!("non-positive kernel scale h = {h}"));
        }

        let row_ptr = get(&doc, "row_ptr")?
            .as_array()
            .ok_or("'row_ptr' is not an array")?
            .iter()
            .map(|v| v.as_u64().ok_or("non-integer row_ptr entry"))
            .collect::<Result<Vec<u64>, _>>()?;
        if row_ptr.first() != Some(&0) {
            return Err("row_ptr must start at 0".to_string());
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("row_ptr must be non-decreasing".to_string());
        }

        let cols = get(&doc, "cols")?
            .as_array()
            .ok_or("'cols' is not an array")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .filter(|&c| c < n_elements as u64)
                    .map(|c| c as u32)
                    .ok_or("out-of-range cols entry")
            })
            .collect::<Result<Vec<u32>, _>>()?;
        if row_ptr.last().copied() != Some(cols.len() as u64) {
            return Err(format!(
                "row_ptr end {:?} does not match {} entries",
                row_ptr.last(),
                cols.len()
            ));
        }

        let weights_hex = get_str(&doc, "weights")?;
        if weights_hex.len() != cols.len() * n_modes * 16 {
            return Err(format!(
                "weights blob has {} hex digits, expected {}",
                weights_hex.len(),
                cols.len() * n_modes * 16
            ));
        }
        let weights = weights_hex
            .as_bytes()
            .chunks(16)
            .map(|chunk| f64_from_hex(std::str::from_utf8(chunk).map_err(|e| e.to_string())?))
            .collect::<Result<Vec<f64>, _>>()?;

        Ok(EvalPlan {
            degree,
            smoothness,
            n_modes,
            n_elements,
            h,
            row_ptr,
            cols,
            weights,
            build_wall: Duration::ZERO,
            build_spans: Vec::new(),
            build_metrics: Metrics::default(),
        })
    }
}
