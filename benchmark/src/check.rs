//! Output checks: every operation the benchmark times is compared against
//! a reference computed independently of the code path under test.
//!
//! * Return values against `spt_interp::run` on the original program.
//! * Sweep reps against each other, by name-sorted deterministic digest.
//! * Served experiment payloads against direct-mode `spt::run_experiment`.

use spt::interp::RunResult;
use spt::{ExperimentOutput, Json, RunReport};
use spt_serve::client::Response;

/// Operations attempted and the failure message of each one that failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation with its check result.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Count the checks a child process ran, from its result line. Its
    /// stderr names each of its failures.
    pub fn absorb(&mut self, line: &Json, source: &str) {
        let n = |k| line.get(k).and_then(Json::as_u64).unwrap_or(0);
        self.attempted += n("attempted");
        self.failures
            .extend((0..n("failed")).map(|_| format!("{source}: a check failed")));
    }
}

/// A simulated run's return value against the sequential interpreter's.
pub fn check_ret(
    what: &str,
    ret: Option<i64>,
    out_of_fuel: bool,
    reference: &RunResult,
) -> Result<(), String> {
    if reference.out_of_fuel {
        return Err(format!("{what}: reference interpreter ran out of fuel"));
    }
    if out_of_fuel {
        return Err(format!("{what}: ran out of fuel"));
    }
    if ret != reference.ret {
        return Err(format!(
            "{what}: ret {ret:?} differs from the interpreter's {:?}",
            reference.ret
        ));
    }
    Ok(())
}

/// Digest of a report's deterministic projection with records sorted by
/// name, so item order (which the seed permutes) does not enter it.
pub fn digest(report: &RunReport) -> u64 {
    let mut sorted = report.clone();
    sorted.records.sort_by(|a, b| a.name.cmp(&b.name));
    spt::store::fingerprint_bytes(sorted.deterministic_json().dump().as_bytes())
}

/// A served `experiment` response against the direct-mode output of the
/// same request. `need_store` demands `served=store` (warm restarts).
pub fn check_experiment(
    resp: &Result<Response, String>,
    reference: &ExperimentOutput,
    need_store: bool,
) -> Result<(), String> {
    let name = &reference.report.experiment;
    let resp = resp.as_ref().map_err(|e| format!("{name}: {e}"))?;
    if need_store && resp.served != "store" {
        return Err(format!("{name}: served={} on a warm store", resp.served));
    }
    let out = ExperimentOutput::from_json(&resp.payload).map_err(|e| format!("{name}: {e}"))?;
    if out.table != reference.table {
        return Err(format!("{name}: served table differs from direct mode"));
    }
    if out.report.deterministic_json().dump() != reference.report.deterministic_json().dump() {
        return Err(format!("{name}: served report differs from direct mode"));
    }
    Ok(())
}

/// A served `eval` response: both simulations must return the
/// interpreter's value without running out of fuel.
pub fn check_eval(resp: &Result<Response, String>, reference: &RunResult) -> Result<(), String> {
    let resp = resp.as_ref().map_err(|e| format!("eval: {e}"))?;
    let outcome = resp
        .payload
        .get("outcome")
        .ok_or("eval: payload has no outcome")?;
    let name = outcome.get("name").and_then(Json::as_str).unwrap_or("?");
    for side in ["baseline", "spt"] {
        let r = outcome
            .get(side)
            .ok_or_else(|| format!("eval {name}: no {side} report"))?;
        let ret = match r.get("ret") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                v.as_i64()
                    .ok_or_else(|| format!("eval {name}: bad {side} ret"))?,
            ),
        };
        let oof = r
            .get("out_of_fuel")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("eval {name}: no {side} out_of_fuel"))?;
        check_ret(&format!("eval {name} {side}"), ret, oof, reference)?;
    }
    Ok(())
}

pub fn check_ping(resp: &Result<Response, String>) -> Result<(), String> {
    let resp = resp.as_ref().map_err(|e| format!("ping: {e}"))?;
    match resp.payload.as_str() {
        Some("pong") => Ok(()),
        _ => Err(format!("ping: unexpected payload {}", resp.payload.dump())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt::workloads::Scale;
    use spt::{ExperimentRequest, RunConfig, Sweep, ToJson};

    fn served(how: &str, payload: Json) -> Result<Response, String> {
        Ok(Response {
            served: how.to_string(),
            payload,
        })
    }

    fn eval_payload(ret: i64) -> Json {
        let side = Json::obj().with("ret", ret).with("out_of_fuel", false);
        Json::obj().with(
            "outcome",
            Json::obj()
                .with("name", "b")
                .with("baseline", side.clone())
                .with("spt", side),
        )
    }

    /// Each planted fault must count as a failed operation, so a broken
    /// checker cannot pass a run by reporting no failures.
    #[test]
    fn planted_faults_count_as_failures() {
        let right = RunResult {
            steps: 10,
            ret: Some(42),
            out_of_fuel: false,
        };
        let wrong = RunResult {
            ret: Some(41),
            ..right.clone()
        };
        let req = ExperimentRequest::new("fig7", Scale::Test);
        let reference = spt::run_experiment(&Sweep::new(1), &req, &RunConfig::default()).unwrap();
        let mut bad_table = reference.clone();
        bad_table.table.push('x');
        let mut bad_report = reference.clone();
        bad_report.report.records[0].name.push('x');

        // The genuine outputs pass.
        assert_eq!(check_ret("b", Some(42), false, &right), Ok(()));
        assert_eq!(
            check_eval(&served("computed", eval_payload(42)), &right),
            Ok(())
        );
        assert_eq!(
            check_experiment(&served("store", reference.to_json()), &reference, true),
            Ok(())
        );

        let mut tally = Tally::default();
        for result in [
            check_ret("b", Some(42), false, &wrong),
            check_ret("b", Some(42), true, &right),
            check_eval(&served("computed", eval_payload(42)), &wrong),
            check_experiment(&served("memo", bad_table.to_json()), &reference, false),
            check_experiment(&served("memo", bad_report.to_json()), &reference, false),
            check_experiment(&served("memo", reference.to_json()), &reference, true),
            check_experiment(&Err("connection refused".into()), &reference, false),
            check_ping(&served("computed", Json::from("pang"))),
        ] {
            tally.op(result);
        }
        assert_eq!(tally.attempted, 8);
        assert_eq!(tally.failures.len(), 8, "{:?}", tally.failures);
    }
}
