//! The paper's semantic claim as one differential property, driven over
//! `s3_bench::differential`: on every drawn case — bytes, cuts, riders,
//! knobs, and on two axes a fault plan and an overload burst — every front
//! equals the sequential reference or fails exactly as the plan says. A
//! failing case prints its description and every violation, each naming
//! its front, then the `PROPTEST_CASE_SEED` that replays it. Two riders
//! whose own code fails close the file.

use proptest::{run_cases, ProptestConfig};
use s3_bench::differential::{Case, Pattern, Rider, Shape, WATCHDOG};
use s3_engine::{
    run_job_legacy, BlockStore, FtConfig, JobError, JobResult, ServerConfig, SharedScanServer,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

#[test]
fn every_front_equals_the_reference() {
    run_cases(ProptestConfig::with_cases(192), |rng| {
        let case = Case::draw(rng);
        let report = catch_unwind(AssertUnwindSafe(|| case.check())).unwrap_or_else(|p| {
            eprintln!("failing case:\n{case}");
            resume_unwind(p)
        });
        assert!(
            report.violations.is_empty(),
            "failing case:\n{case}\n{}",
            report.violations.join("\n")
        );
    });
}

fn fixed_store() -> BlockStore {
    let text = "alpha beta alpha gamma\nbeta delta alpha\nepsilon beta gamma delta\n".repeat(60);
    BlockStore::from_text(&text, 256)
}

/// `riders` on a two-thread server with the cooperative or the resilient
/// scan loop.
fn served(riders: &[Rider], resilient: bool) -> Vec<JobResult<String, i64>> {
    let mut cfg = ServerConfig::new(2, 2);
    if resilient {
        cfg.ft = FtConfig::resilient();
    }
    let server = SharedScanServer::with_config(fixed_store(), cfg);
    let handles = server.submit_all(riders.to_vec());
    let outs = handles
        .iter()
        .map(|h| h.wait_timeout(WATCHDOG).expect("resolves"))
        .collect();
    server.shutdown();
    outs
}
/// A rider whose own code panics on one token fails alone, on both scan
/// loops; its co-riders — indexed and not — publish their solo output.
#[test]
fn a_rider_panicking_on_one_token_fails_alone() {
    for shape in [Shape::Arena, Shape::TokenFold] {
        let poison = Some(b"epsilon".to_vec());
        let poisoned = Rider {
            poison,
            ..Rider::new(Pattern::Prefix(b"ep".to_vec()), shape)
        };
        let riders = vec![
            Rider::new(Pattern::Prefix(b"al".to_vec()), Shape::Arena),
            poisoned,
            Rider::new(Pattern::All, Shape::Arena),
            Rider::new(Pattern::Prefix(b"e".to_vec()), Shape::TokenBuf),
            Rider::new(Pattern::Contains(b"lt".to_vec()), Shape::LineFold),
        ];
        for resilient in [false, true] {
            for (i, (rider, out)) in riders.iter().zip(served(&riders, resilient)).enumerate() {
                match out {
                    Err(JobError::Panicked(msg)) if i == 1 => {
                        assert!(msg.contains("poisoned"), "{msg}")
                    }
                    Ok(out) if i != 1 => {
                        assert_eq!(out, run_job_legacy(rider, &fixed_store()), "rider {i}")
                    }
                    other => panic!("{shape:?} resilient={resilient} rider {i}: {other:?}"),
                }
            }
        }
    }
}

/// A rider that declares a prefix its filter does not have would lose
/// records silently; debug builds run it on the tokens the index kept from
/// it and fail it — alone — on the first one it emits for.
#[cfg(debug_assertions)]
#[test]
fn a_rider_that_lies_about_its_prefix_is_quarantined() {
    for shape in [Shape::Arena, Shape::TokenFold, Shape::TokenBuf] {
        let honest = Rider::new(Pattern::Prefix(b"be".to_vec()), Shape::Arena);
        // "alpha" keeps the promise; the corpus has no other a-word.
        let kept = Rider {
            claim: Some(b"al".to_vec()),
            ..Rider::new(Pattern::Prefix(b"a".to_vec()), shape)
        };
        let outs = served(&[kept.clone(), honest.clone()], false);
        assert!(outs.iter().all(Result::is_ok), "a kept promise is no lie");
        let liar = Rider {
            claim: Some(b"alz".to_vec()),
            ..kept
        };
        for resilient in [false, true] {
            let outs = served(&[liar.clone(), honest.clone()], resilient);
            assert_eq!(outs[1], Ok(run_job_legacy(&honest, &fixed_store())));
            match &outs[0] {
                Err(JobError::Panicked(msg)) => {
                    assert!(
                        msg.contains("token_prefix") && msg.contains("alpha"),
                        "{msg}"
                    )
                }
                other => panic!("{shape:?} resilient={resilient}: liar got {other:?}"),
            }
        }
    }
}
