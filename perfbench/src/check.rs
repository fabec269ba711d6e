//! Output checks. Each returns a message describing the first mismatch.

use nn::Tensor;
use selective::SelectiveModel;
use serve::{Engine, RawWafer, Route, ShedReason, WaferDecision};
use wafermap::DefectClass;

use crate::data::GRID;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation and whether it passed its checks.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        self.check(result);
    }

    /// Count a failed check against the operations already attempted.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(message) = result {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }
}

/// Stage the wafers that pass validation into one `[n, 1, grid, grid]`
/// tensor, exactly as the engine stages them.
pub fn stage(engine: &Engine, wafers: &[RawWafer]) -> Tensor {
    let pixels = GRID * GRID;
    let maps: Vec<_> = wafers.iter().filter_map(|w| engine.validate_raw(w).ok()).collect();
    let mut images = Tensor::zeros(&[maps.len(), 1, GRID, GRID]);
    for (slot, map) in images.data_mut().chunks_exact_mut(pixels).zip(&maps) {
        map.write_image_into(slot);
    }
    images
}

/// Check 1 and 3 for one request: every served decision equals
/// `SelectiveModel::forward` + argmax + `score ≥ τ` bit for bit, the
/// poisoned wafer (if any) is shed as `InvalidInput`, and no clean
/// wafer is shed.
pub fn decisions_match(
    reference: &mut SelectiveModel,
    engine: &Engine,
    wafers: &[RawWafer],
    poisoned: Option<usize>,
    decisions: &[WaferDecision],
) -> Result<(), String> {
    shed_as_expected(poisoned, decisions)?;
    let images = stage(engine, wafers);
    let (logits, scores) = reference.forward(&images);
    let probs = nn::loss::softmax(&logits);
    let classes = reference.config().n_classes;
    let tau = engine.threshold();
    let served = decisions.iter().enumerate().filter(|&(i, _)| Some(i) != poisoned);
    for (j, (i, got)) in served.enumerate() {
        let row = &probs.data()[j * classes..(j + 1) * classes];
        let label = DefectClass::from_index(nn::loss::argmax(row))
            .ok_or_else(|| format!("wafer {i}: reference label out of range"))?;
        let confidence = row.iter().fold(0.0f32, |m, &v| m.max(v));
        let score = scores[j];
        let route = if score >= tau { Route::Predicted(label) } else { Route::Abstained(label) };
        if got.route != route
            || got.confidence.to_bits() != confidence.to_bits()
            || got.selection_score.to_bits() != score.to_bits()
        {
            return Err(format!(
                "wafer {i}: served {:?}/{}/{} but forward gives {route:?}/{confidence}/{score}",
                got.route, got.confidence, got.selection_score
            ));
        }
    }
    Ok(())
}

/// Check 3 alone: only the poisoned wafer is shed, as `InvalidInput`.
pub fn shed_as_expected(
    poisoned: Option<usize>,
    decisions: &[WaferDecision],
) -> Result<(), String> {
    for (i, d) in decisions.iter().enumerate() {
        let expected = (Some(i) == poisoned).then_some(ShedReason::InvalidInput);
        if d.shed() != expected {
            return Err(format!("wafer {i}: shed {:?}, expected {expected:?}", d.shed()));
        }
    }
    Ok(())
}

/// Check 2: `submitted = predicted + abstained + shed`, in the serving
/// stats and in the telemetry counters, and equal to what the benchmark
/// submitted.
pub fn ledger_balances(engine: &Engine, submitted: u64) -> Result<(), String> {
    let s = engine.report().serving;
    if s.submitted != submitted || s.submitted != s.predicted + s.abstained + s.shed {
        return Err(format!(
            "ledger: sent {submitted}, stats submitted {} = predicted {} + abstained {} + shed {}?",
            s.submitted, s.predicted, s.abstained, s.shed
        ));
    }
    let counter = |name: &str| engine.telemetry().counter(name, "").get();
    let shed: u64 = ShedReason::ALL
        .iter()
        .map(|r| {
            engine.telemetry().counter_with("serve_shed_total", &[("reason", r.as_str())], "").get()
        })
        .sum();
    let (predicted, abstained) =
        (counter("serve_predicted_total"), counter("serve_abstained_total"));
    if (predicted, abstained, shed) != (s.predicted, s.abstained, s.shed) {
        return Err(format!(
            "ledger: telemetry {predicted}/{abstained}/{shed} disagrees with stats {}/{}/{}",
            s.predicted, s.abstained, s.shed
        ));
    }
    Ok(())
}

/// Check 4: a reloaded bundle gives bit-identical `infer_predict`
/// outputs to the model it was saved from.
pub fn reload_identical(
    original: &SelectiveModel,
    reloaded: &SelectiveModel,
    images: &Tensor,
    tau: f32,
) -> Result<(), String> {
    let a = original.infer_predict(images, tau);
    let b = reloaded.infer_predict(images, tau);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        if x.label != y.label
            || x.selected != y.selected
            || x.confidence.to_bits() != y.confidence.to_bits()
            || x.selection_score.to_bits() != y.selection_score.to_bits()
        {
            return Err(format!("reload: wafer {i} infers {y:?}, saved model gave {x:?}"));
        }
    }
    if a.len() != b.len() {
        return Err(format!("reload: {} outputs vs {}", b.len(), a.len()));
    }
    Ok(())
}
