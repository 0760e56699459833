//! Differential fault-injection harness.
//!
//! The headline invariant of the fault subsystem: for any zoo network and
//! any seeded [`FaultPlan`], the run's outputs are **bit-exact** with the
//! fault-free run — faults only change cycle counts. Transient faults
//! (DMA stalls/failures, L1 denials) are retried with cycle-accounted
//! backoff; permanent engine-offline faults swap the affected step to a
//! CPU fallback rebuilt from its descriptor mid-run.
//!
//! The seed sweep honours `HTVM_FAULT_SEED_BASE` so CI can shift the
//! whole 32-seed window per job without touching the code.

use htvm::{
    Compiler, DeployConfig, EngineKind, FaultEvent, FaultPlan, Machine, Program, RetryPolicy,
    RunError, RunReport,
};
use htvm_ir::Tensor;
use htvm_models::{all_models, resnet8, Model, QuantScheme};

const SEEDS_PER_MODEL: u64 = 32;

fn seed_base() -> u64 {
    std::env::var("HTVM_FAULT_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn compile(model: &Model, deploy: DeployConfig) -> (Program, Machine) {
    let compiler = Compiler::new().with_deploy(deploy);
    let artifact = compiler
        .compile(&model.graph)
        .unwrap_or_else(|e| panic!("{}: {e}", model.name));
    let machine = Machine::new(*compiler.platform());
    (artifact.program, machine)
}

fn run_clean(machine: &Machine, program: &Program, input: &Tensor) -> RunReport {
    machine
        .run(program, std::slice::from_ref(input))
        .expect("fault-free run succeeds")
}

/// The headline invariant, exercised across the whole zoo: every model,
/// `SEEDS_PER_MODEL` seeded plans each, outputs bit-exact with the
/// fault-free run and total cycles never lower.
#[test]
fn seeded_fault_plans_are_bit_exact_on_every_zoo_model() {
    let base = seed_base();
    let mut plans_with_faults = 0u64;
    for (model, deploy) in [
        (QuantScheme::Int8, DeployConfig::Digital),
        (QuantScheme::Mixed, DeployConfig::Both),
    ]
    .into_iter()
    .flat_map(|(scheme, deploy)| all_models(scheme).into_iter().map(move |m| (m, deploy)))
    {
        let (program, machine) = compile(&model, deploy);
        let input = model.input(99);
        let clean = run_clean(&machine, &program, &input);
        for i in 0..SEEDS_PER_MODEL {
            let seed = base + i;
            let plan = FaultPlan::seeded(seed, program.steps.len());
            let faulty = machine
                .run_with_faults(&program, std::slice::from_ref(&input), &plan)
                .unwrap_or_else(|e| panic!("{} seed {seed} under {deploy:?}: {e}", model.name));
            assert_eq!(
                faulty.outputs, clean.outputs,
                "{} seed {seed} under {deploy:?}: outputs diverged",
                model.name
            );
            assert!(
                faulty.total_cycles() >= clean.total_cycles(),
                "{} seed {seed}: faults made the run faster ({} < {})",
                model.name,
                faulty.total_cycles(),
                clean.total_cycles()
            );
            if faulty.counters.any_faults() {
                plans_with_faults += 1;
                // Injected faults leave evidence: stall cycles or retries
                // in the counters, mirrored per-layer and in the trace.
                let cycle_evidence = faulty.total_cycles() > clean.total_cycles()
                    || faulty.counters.engine_fallbacks > 0;
                assert!(
                    cycle_evidence,
                    "{} seed {seed}: counters report faults but cycles are unchanged",
                    model.name
                );
            }
        }
    }
    // The seeded generator must actually inject faults for the sweep to
    // mean anything; the vast majority of plans are non-trivial.
    assert!(
        plans_with_faults > SEEDS_PER_MODEL,
        "only {plans_with_faults} plans injected any faults"
    );
}

/// Satellite 5: `run_with_faults` with the empty plan is `run`, cycle for
/// cycle.
#[test]
fn empty_plan_reproduces_the_fault_free_run_exactly() {
    for model in all_models(QuantScheme::Int8) {
        let (program, machine) = compile(&model, DeployConfig::Digital);
        let input = model.input(7);
        let clean = run_clean(&machine, &program, &input);
        let empty = machine
            .run_with_faults(&program, std::slice::from_ref(&input), &FaultPlan::none())
            .unwrap();
        assert_eq!(empty.outputs, clean.outputs, "{}", model.name);
        assert_eq!(
            empty.total_cycles(),
            clean.total_cycles(),
            "{}: empty plan changed cycle counts",
            model.name
        );
        assert!(!empty.counters.any_faults(), "{}", model.name);
        for (a, b) in empty.layers.iter().zip(&clean.layers) {
            assert_eq!(a.cycles, b.cycles, "{} layer {}", model.name, a.name);
        }
    }
}

/// Stalls and retries injected into a real network are visible in the
/// perf counters, the per-layer profiles and the chrome trace.
#[test]
fn injected_stalls_show_up_in_counters_and_trace() {
    let model = resnet8(QuantScheme::Int8);
    let (program, machine) = compile(&model, DeployConfig::Digital);
    let input = model.input(3);
    let clean = run_clean(&machine, &program, &input);
    let plan = FaultPlan::none()
        .with_event(FaultEvent::DmaStall {
            transfer: 0,
            cycles: 12_345,
        })
        .with_event(FaultEvent::DmaFail {
            transfer: 2,
            attempts: 2,
        });
    let faulty = machine
        .run_with_faults(&program, std::slice::from_ref(&input), &plan)
        .unwrap();
    assert_eq!(faulty.outputs, clean.outputs);
    assert!(faulty.counters.dma_stall_cycles >= 12_345);
    assert_eq!(faulty.counters.dma_retries, 2);
    assert_eq!(
        faulty.total_cycles(),
        clean.total_cycles() + faulty.counters.total_stall_cycles()
    );
    let stalled: Vec<_> = faulty
        .layers
        .iter()
        .filter(|l| l.cycles.stall > 0)
        .collect();
    assert!(!stalled.is_empty(), "no layer recorded the stall");
    let trace = faulty.to_chrome_trace();
    assert!(trace.contains("\"faults\""), "no faults row in trace");
    assert!(
        trace.contains(&format!("\"stall:{}\"", stalled[0].name)),
        "no stall span for {}",
        stalled[0].name
    );
    // The fault-free trace has no faults row at all.
    assert!(!clean.to_chrome_trace().contains("\"faults\""));
}

/// A permanent engine fault mid-run swaps the step to its CPU fallback:
/// same bits, slower run, fallback recorded in the counters.
#[test]
fn engine_offline_mid_run_degrades_gracefully() {
    let model = resnet8(QuantScheme::Int8);
    let (program, machine) = compile(&model, DeployConfig::Digital);
    let input = model.input(11);
    let clean = run_clean(&machine, &program, &input);
    // Take the digital engine down from the middle of the network on.
    let mid = program.steps.len() / 2;
    let plan = FaultPlan::none().with_event(FaultEvent::EngineOffline {
        engine: EngineKind::Digital,
        layer: mid,
    });
    let faulty = machine
        .run_with_faults(&program, std::slice::from_ref(&input), &plan)
        .unwrap();
    assert_eq!(faulty.outputs, clean.outputs, "fallback changed the bits");
    assert!(faulty.counters.engine_fallbacks > 0, "no fallback taken");
    assert!(faulty.total_cycles() > clean.total_cycles());
    let fallback_layers: Vec<_> = faulty
        .layers
        .iter()
        .filter(|l| l.name.ends_with("_cpu_fallback"))
        .collect();
    assert_eq!(
        fallback_layers.len() as u64,
        faulty.counters.engine_fallbacks
    );
    for l in &fallback_layers {
        assert_eq!(l.engine, EngineKind::Cpu);
    }
}

/// The engine dies exactly at the attention matmul: the step degrades to
/// its CPU fallback — the same multiset of i32 products, so bit-exact —
/// and the rest of the network keeps running on the recovered engine
/// state machine. The second operand of a matmul is a runtime activation
/// (not baked weights), so this exercises the two-input fallback path.
#[test]
fn engine_offline_at_the_attention_matmul_falls_back_bit_exactly() {
    let model = htvm_models::tiny_transformer(QuantScheme::Int8);
    let (program, machine) = compile(&model, DeployConfig::Digital);
    let matmul_steps: Vec<usize> = program
        .steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            htvm::Step::Accel { desc, .. } if desc.geom.kind == htvm::LayerKind::MatMul => Some(i),
            _ => None,
        })
        .collect();
    assert_eq!(matmul_steps.len(), 2, "QK^T and the context matmul");
    let input = model.input(23);
    let clean = run_clean(&machine, &program, &input);
    for &step in &matmul_steps {
        let plan = FaultPlan::none().with_event(FaultEvent::EngineOffline {
            engine: EngineKind::Digital,
            layer: step,
        });
        let faulty = machine
            .run_with_faults(&program, std::slice::from_ref(&input), &plan)
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(
            faulty.outputs, clean.outputs,
            "attention fallback at step {step} changed the bits"
        );
        assert!(faulty.counters.engine_fallbacks >= 1);
        assert!(
            faulty
                .layers
                .iter()
                .any(|l| l.name.ends_with("_cpu_fallback") && l.engine == EngineKind::Cpu),
            "step {step}: no CPU fallback layer recorded"
        );
    }
}

/// An offline engine at a step the host cannot express as a CPU graph —
/// here a conv whose weight tensor disagrees with its geometry's input
/// channels — is a structured error carrying the failing layer index,
/// name and engine; no string matching needed.
#[test]
fn engine_offline_without_fallbacks_is_a_structured_error() {
    let model = resnet8(QuantScheme::Int8);
    let (mut program, machine) = compile(&model, DeployConfig::Digital);
    let (step, name) = program
        .steps
        .iter_mut()
        .enumerate()
        .find_map(|(i, s)| match s {
            htvm::Step::Accel { desc, .. } if desc.geom.kind == htvm::LayerKind::Conv2d => {
                let g = &desc.geom;
                desc.weights = Some(Tensor::zeros(htvm::DType::I8, &[g.k, g.c + 1, g.fy, g.fx]));
                Some((i, desc.name.clone()))
            }
            _ => None,
        })
        .expect("resnet8 has a digital conv");
    let input = model.input(11);
    let plan = FaultPlan::none().with_event(FaultEvent::EngineOffline {
        engine: EngineKind::Digital,
        layer: step,
    });
    let err = machine
        .run_with_faults(&program, &[input], &plan)
        .expect_err("no fallback to degrade to");
    let RunError::EngineUnavailable {
        layer_index,
        layer,
        engine,
    } = &err
    else {
        panic!("expected EngineUnavailable, got {err:?}");
    };
    assert_eq!(*layer_index, step);
    assert_eq!(*layer, name);
    assert_eq!(*engine, EngineKind::Digital);
    assert_eq!(err.layer_index(), Some(step));
    assert_eq!(err.engine(), Some(EngineKind::Digital));
}

/// A persisted artifact is untrusted input: an accelerator step whose
/// weights (conv) or second operand (add) went missing still loads, so
/// the run must refuse it with a typed error naming the step — fault-free
/// and with the step's engine offline alike — instead of panicking.
#[test]
fn a_loaded_step_missing_an_operand_is_a_structured_error() {
    type Breaker = fn(&mut htvm::Step) -> bool;
    let cases: [(&str, Model, Breaker); 2] = [
        (
            "weights",
            htvm_models::ds_cnn(QuantScheme::Int8),
            |s| match s {
                htvm::Step::Accel { desc, .. } if desc.weights.is_some() => {
                    desc.weights = None;
                    true
                }
                _ => false,
            },
        ),
        ("a second input", resnet8(QuantScheme::Int8), |s| match s {
            htvm::Step::Accel { desc, input2, .. } if desc.geom.kind == htvm::LayerKind::Add => {
                *input2 = None;
                true
            }
            _ => false,
        }),
    ];
    for (missing, model, breaker) in cases {
        let (mut program, machine) = compile(&model, DeployConfig::Digital);
        let step = program
            .steps
            .iter_mut()
            .position(breaker)
            .unwrap_or_else(|| panic!("{}: no step to break", model.name));
        let program: Program =
            serde_json::from_str(&serde_json::to_string(&program).unwrap()).unwrap();
        let htvm::Step::Accel { desc, .. } = &program.steps[step] else {
            unreachable!("the breaker only matches accelerator steps");
        };
        let name = desc.name.clone();
        let input = model.input(3);
        for plan in [
            FaultPlan::none(),
            FaultPlan::none().with_event(FaultEvent::EngineOffline {
                engine: EngineKind::Digital,
                layer: step,
            }),
        ] {
            let err = machine
                .run_with_faults(&program, std::slice::from_ref(&input), &plan)
                .expect_err("a malformed step cannot run");
            let RunError::MalformedStep {
                layer_index,
                layer,
                detail,
            } = &err
            else {
                panic!("{}: expected MalformedStep, got {err:?}", model.name);
            };
            assert_eq!(*layer_index, step);
            assert_eq!(*layer, name);
            assert!(detail.ends_with(missing), "{detail}");
            assert_eq!(err.layer_index(), Some(step));
        }
    }
}

/// A DMA transfer that keeps failing past the retry budget aborts the run
/// with the failing layer and transfer identified.
#[test]
fn dma_failure_past_retry_budget_aborts_with_context() {
    let model = resnet8(QuantScheme::Int8);
    let (program, machine) = compile(&model, DeployConfig::Digital);
    let input = model.input(5);
    let plan = FaultPlan::none().with_event(FaultEvent::DmaFail {
        transfer: 0,
        attempts: RetryPolicy::default().max_retries + 1,
    });
    let err = machine
        .run_with_faults(&program, &[input], &plan)
        .expect_err("unrecoverable DMA fault");
    let RunError::DmaFailed {
        layer_index,
        transfer,
        attempts,
        ..
    } = &err
    else {
        panic!("expected DmaFailed, got {err:?}");
    };
    assert_eq!(*layer_index, 0);
    assert_eq!(*transfer, 0);
    assert_eq!(*attempts, RetryPolicy::default().max_retries + 1);
    assert_eq!(err.layer_index(), Some(0));
}

/// Fault plans are plain data: serializable, and the seeded generator is
/// a pure function of its seed.
#[test]
fn fault_plans_are_deterministic_and_serializable() {
    let a = FaultPlan::seeded(42, 12);
    let b = FaultPlan::seeded(42, 12);
    assert_eq!(a, b);
    assert_ne!(a, FaultPlan::seeded(43, 12));
    let json = serde_json::to_string(&a).unwrap();
    let back: FaultPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(a, back);

    // Determinism end to end: the same plan on the same model produces
    // the same report, cycle for cycle.
    let model = resnet8(QuantScheme::Int8);
    let (program, machine) = compile(&model, DeployConfig::Digital);
    let input = model.input(1);
    let plan = FaultPlan::seeded(42, program.steps.len());
    let r1 = machine
        .run_with_faults(&program, std::slice::from_ref(&input), &plan)
        .unwrap();
    let r2 = machine
        .run_with_faults(&program, std::slice::from_ref(&input), &plan)
        .unwrap();
    assert_eq!(r1.outputs, r2.outputs);
    assert_eq!(r1.total_cycles(), r2.total_cycles());
    assert_eq!(r1.counters, r2.counters);
}
