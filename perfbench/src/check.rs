//! The independent verdict check.
//!
//! It runs outside every timed region and trusts nothing the verifier
//! computed: it evaluates the specification and the accepted invariant with
//! the problem's own interpreter, on inputs drawn independently of the
//! verifier's (capped, lexicographic) product order.
//!
//! * ADT problems: seeded draws, uniform over the *full* cartesian product of
//!   the spec's quantifier pools (the smallest values of each type, as
//!   [`enumerate_values`] lists them at the run's bounds).  Tuples whose
//!   abstract components all satisfy the invariant are kept; the verdict is
//!   refuted if the specification is false (or fails) on any kept tuple.
//! * Numeric problems: a held-out sample of reachable worlds from
//!   [`sample_worlds`]; the verdict is refuted if it rejects any of them.

use hanoi_abstraction::Problem;
use hanoi_benchmarks::trace::{ground_truth, sample_worlds, SplitMix64, TraceConfig};
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::value::Value;
use hanoi_verifier::pools::{collect_abstract, enumerate_values};
use hanoi_verifier::VerifierBounds;

/// Uniform draws per checked ADT verdict.
pub const ADT_DRAWS: usize = 2000;

/// What the check found for one verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Inputs drawn (tuples for ADT problems, worlds for numeric ones).
    pub drawn: usize,
    /// Inputs the invariant admitted, so the verdict was tested on them.
    pub tested: usize,
    /// The first refuting input, rendered, if any.
    pub refuted_by: Option<String>,
}

/// The per-problem random stream: a function of the run seed and the
/// problem id only.
pub fn problem_rng(seed: u64, problem_id: &str) -> SplitMix64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in problem_id.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
}

/// The quantifier pools the ADT check draws from, one per spec parameter.
pub fn quantifier_pools(problem: &Problem, bounds: &VerifierBounds) -> Vec<Vec<Value>> {
    let arity = problem.spec.arity();
    problem
        .spec
        .params
        .iter()
        .map(|(_, ty)| {
            let concrete = ty.subst_abstract(problem.concrete_type());
            enumerate_values(
                problem,
                &concrete,
                bounds.count_for(arity),
                bounds.size_for(arity),
            )
        })
        .collect()
}

/// The draw indices for one problem: `draws` tuples, each uniform over the
/// full product of pools of the given lengths.
pub fn draw_indices(
    seed: u64,
    problem_id: &str,
    pool_lens: &[usize],
    draws: usize,
) -> Vec<Vec<usize>> {
    if pool_lens.contains(&0) {
        return Vec::new();
    }
    let mut rng = problem_rng(seed, problem_id);
    (0..draws)
        .map(|_| {
            pool_lens
                .iter()
                .map(|&len| rng.below(len as u64) as usize)
                .collect()
        })
        .collect()
}

/// Checks an accepted ADT invariant against seeded uniform draws.
pub fn check_adt(
    problem: &Problem,
    problem_id: &str,
    invariant: &Expr,
    pools: &[Vec<Value>],
    fuel: u64,
    seed: u64,
    draws: usize,
) -> CheckReport {
    let evaluator = problem.evaluator();
    let closure = evaluator.eval(&problem.globals, invariant, &mut Fuel::new(fuel));
    let admits = |value: &Value| match &closure {
        Ok(closure) => evaluator
            .apply_pred(closure, value, &mut Fuel::new(fuel))
            .unwrap_or(false),
        Err(_) => false,
    };
    let lens: Vec<usize> = pools.iter().map(Vec::len).collect();
    let mut report = CheckReport {
        drawn: 0,
        tested: 0,
        refuted_by: None,
    };
    for indices in draw_indices(seed, problem_id, &lens, draws) {
        report.drawn += 1;
        let args: Vec<Value> = indices
            .iter()
            .zip(pools)
            .map(|(&i, pool)| pool[i].clone())
            .collect();
        let admitted = args.iter().zip(&problem.spec.params).all(|(arg, (_, ty))| {
            !ty.mentions_abstract() || collect_abstract(arg, ty).iter().all(&admits)
        });
        if !admitted {
            continue;
        }
        report.tested += 1;
        let holds = problem
            .eval_spec_with_fuel(&args, &mut Fuel::new(fuel))
            .unwrap_or(false);
        if !holds {
            let rendered: Vec<String> = args.iter().map(Value::to_string).collect();
            report.refuted_by = Some(rendered.join(", "));
            break;
        }
    }
    report
}

/// The held-out trace sample of a numeric problem for `seed`.
pub fn held_out_worlds(
    problem: &Problem,
    problem_id: &str,
    seed: u64,
) -> Result<Vec<Value>, String> {
    let truth =
        ground_truth(problem_id).ok_or_else(|| format!("no ground truth for {problem_id}"))?;
    let config = TraceConfig {
        seed: problem_rng(seed, problem_id).next_u64(),
        count: 64,
        ..TraceConfig::default()
    };
    sample_worlds(problem, &truth, &config).map_err(|e| e.to_string())
}

/// Checks an accepted numeric invariant against held-out reachable worlds.
pub fn check_numeric(
    problem: &Problem,
    invariant: &Expr,
    worlds: &[Value],
    fuel: u64,
) -> CheckReport {
    let rejected = worlds.iter().find(|world| {
        !problem
            .eval_predicate_with_fuel(invariant, world, &mut Fuel::new(fuel))
            .unwrap_or(false)
    });
    CheckReport {
        drawn: worlds.len(),
        tested: worlds.len(),
        refuted_by: rejected.map(Value::to_string),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::parser::parse_expr;

    fn problem(id: &str) -> Problem {
        hanoi_benchmarks::find(id).unwrap().problem().unwrap()
    }

    #[test]
    fn draws_depend_on_the_seed_and_problem_only() {
        let a = draw_indices(1, "/coq/bst-::-set", &[593, 593, 15], 50);
        assert_eq!(a, draw_indices(1, "/coq/bst-::-set", &[593, 593, 15], 50));
        assert_ne!(a, draw_indices(2, "/coq/bst-::-set", &[593, 593, 15], 50));
        assert_ne!(
            a,
            draw_indices(1, "/coq/bst-::-set+hofs", &[593, 593, 15], 50)
        );
        assert!(a.iter().all(|t| t[0] < 593 && t[1] < 593 && t[2] < 15));
        assert!(draw_indices(1, "p", &[3, 0], 5).is_empty());
    }

    #[test]
    fn draws_reach_past_the_first_quantifier_prefix() {
        // The verifier's capped odometer never leaves the first 4 values of
        // the first quantifier on a [593, 593, 15] product; uniform draws do.
        let draws = draw_indices(7, "p", &[593, 593, 15], 200);
        assert!(draws.iter().filter(|t| t[0] >= 4).count() > 150);
    }

    #[test]
    fn true_is_refuted_on_bst_binfuncs_and_false_admits_nothing() {
        let bounds = VerifierBounds::quick();
        let p = problem("/coq/bst-::-set+binfuncs");
        let pools = quantifier_pools(&p, &bounds);
        let always = parse_expr("fun (x : tree) -> True").unwrap();
        let report = check_adt(
            &p,
            "/coq/bst-::-set+binfuncs",
            &always,
            &pools,
            bounds.fuel,
            3,
            ADT_DRAWS,
        );
        assert!(report.refuted_by.is_some(), "{report:?}");
        let never = parse_expr("fun (x : tree) -> False").unwrap();
        let report = check_adt(
            &p,
            "/coq/bst-::-set+binfuncs",
            &never,
            &pools,
            bounds.fuel,
            3,
            100,
        );
        assert_eq!((report.drawn, report.refuted_by.is_none()), (100, true));
    }

    #[test]
    fn numeric_held_out_sample_is_seeded() {
        let id = "/numeric/range-::-ordered";
        let p = problem(id);
        let a = held_out_worlds(&p, id, 1).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, held_out_worlds(&p, id, 1).unwrap());
        assert_ne!(a, held_out_worlds(&p, id, 2).unwrap());
        let truth = ground_truth(id).unwrap().predicate(&p);
        assert_eq!(check_numeric(&p, &truth, &a, 100_000).refuted_by, None);
    }
}
