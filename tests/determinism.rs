//! Determinism tests: the whole pipeline — model generation, tiling,
//! partitioning, memory planning, simulation — must be bit-reproducible,
//! since every benchmark number in EXPERIMENTS.md depends on it.

use htvm::{Compiler, DeployConfig, LowerOptions, Machine};
use htvm_models::{ds_cnn, mobilenet_v1, resnet8, toyadmos_dae, QuantScheme};

#[test]
fn model_generation_is_deterministic() {
    for scheme in [QuantScheme::Int8, QuantScheme::Ternary, QuantScheme::Mixed] {
        assert_eq!(ds_cnn(scheme).graph, ds_cnn(scheme).graph);
        assert_eq!(resnet8(scheme).graph, resnet8(scheme).graph);
    }
}

#[test]
fn compilation_is_deterministic_across_invocations() {
    let model = resnet8(QuantScheme::Mixed);
    let a = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&model.graph)
        .expect("compiles");
    let b = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&model.graph)
        .expect("compiles");
    assert_eq!(a, b);
}

#[test]
fn simulation_is_deterministic() {
    let model = toyadmos_dae(QuantScheme::Int8);
    let compiler = Compiler::new().with_deploy(DeployConfig::Digital);
    let artifact = compiler.compile(&model.graph).expect("compiles");
    let machine = Machine::new(*compiler.platform());
    let r1 = machine
        .run(&artifact.program, &[model.input(5)])
        .expect("runs");
    let r2 = machine
        .run(&artifact.program, &[model.input(5)])
        .expect("runs");
    assert_eq!(r1.outputs, r2.outputs);
    assert_eq!(r1.total_cycles(), r2.total_cycles());
    assert_eq!(r1.layers, r2.layers);
}

#[test]
fn different_inputs_same_cycles() {
    // Latency is data-independent (no data-gated paths in the SoC model):
    // the same program costs the same cycles for any input values.
    let model = ds_cnn(QuantScheme::Int8);
    let compiler = Compiler::new().with_deploy(DeployConfig::Digital);
    let artifact = compiler.compile(&model.graph).expect("compiles");
    let machine = Machine::new(*compiler.platform());
    let r1 = machine
        .run(&artifact.program, &[model.input(1)])
        .expect("runs");
    let r2 = machine
        .run(&artifact.program, &[model.input(2)])
        .expect("runs");
    assert_eq!(
        r1.total_cycles(),
        r2.total_cycles(),
        "cycle counts are data-independent"
    );
    // Sanity-check data dependence on a shallow graph (deep synthetic
    // networks can wash out input dependence through requantization).
    let mut b = htvm::GraphBuilder::new();
    let x = b.input("x", &[1, 4, 4], htvm::DType::I8);
    let w = b.constant(
        "w",
        htvm::Tensor::new(htvm::DType::I8, &[1, 1, 1, 1], vec![1]).unwrap(),
    );
    let c = b.conv2d(x, w, (1, 1), (0, 0, 0, 0)).unwrap();
    let c = b.right_shift(c, 0).unwrap();
    let c = b.clip(c, -128, 127).unwrap();
    let c = b.cast(c, htvm::DType::I8).unwrap();
    let g = b.finish(&[c]).unwrap();
    let artifact = compiler.compile(&g).expect("compiles");
    let i1 = htvm_models::random_input(1, &[1, 4, 4]);
    let i2 = htvm_models::random_input(2, &[1, 4, 4]);
    let o1 = machine
        .run(&artifact.program, std::slice::from_ref(&i1))
        .expect("runs");
    let o2 = machine.run(&artifact.program, &[i2]).expect("runs");
    assert_eq!(o1.outputs[0], i1, "identity conv passes data through");
    assert_ne!(o1.outputs, o2.outputs, "different inputs, different data");
}

#[test]
fn kernel_thread_count_is_invisible_in_outputs_and_cycles() {
    // The fast-kernel backend fans large layers across worker threads
    // (`HTVM_NUM_THREADS`); every tier accumulates with exact i32
    // arithmetic, so the thread count must be invisible in every output
    // bit and every simulated cycle — the BENCH.json gate relies on it.
    // MobileNet's convolutions cross the parallelism threshold; the
    // transformer run pins the attention tiers (matmul, integer softmax,
    // layer norm) and its 16384-wide classifier dense under the same
    // sweep.
    for model in [
        mobilenet_v1(QuantScheme::Int8),
        htvm_models::tiny_transformer(QuantScheme::Int8),
    ] {
        let compiler = Compiler::new().with_deploy(DeployConfig::Both);
        let artifact = compiler.compile(&model.graph).expect("compiles");
        let machine = Machine::new(*compiler.platform());
        let input = model.input(9);

        let mut sim_reports = Vec::new();
        let mut eval_outputs = Vec::new();
        for setting in [Some("1"), Some("4"), None] {
            match setting {
                Some(v) => std::env::set_var("HTVM_NUM_THREADS", v),
                None => std::env::remove_var("HTVM_NUM_THREADS"),
            }
            // Tiled, accelerated simulation (feeds BENCH.json cycles)...
            sim_reports.push(
                machine
                    .run(&artifact.program, std::slice::from_ref(&input))
                    .expect("runs"),
            );
            // ...and the full-layer reference interpreter, whose big
            // layers actually cross the parallelism threshold.
            eval_outputs.push(
                htvm_kernels::evaluate(&model.graph, std::slice::from_ref(&input))
                    .expect("evaluates"),
            );
        }
        std::env::remove_var("HTVM_NUM_THREADS");

        let (first, rest) = sim_reports.split_first().expect("three runs");
        for r in rest {
            assert_eq!(
                first.outputs, r.outputs,
                "{}: sim outputs differ",
                model.name
            );
            assert_eq!(
                first.total_cycles(),
                r.total_cycles(),
                "{}: cycles differ",
                model.name
            );
            assert_eq!(
                first.layers, r.layers,
                "{}: layer profiles differ",
                model.name
            );
        }
        let (first, rest) = eval_outputs.split_first().expect("three runs");
        for o in rest {
            assert_eq!(
                first, o,
                "{}: reference interpreter outputs differ",
                model.name
            );
        }
    }
}

#[test]
fn parallel_solve_phase_matches_sequential_byte_for_byte() {
    // The solve phase fans out across threads by default; with
    // `parallel: false` the same lowering runs on one thread. The two
    // artifacts must agree not just structurally but in serialized bytes —
    // thread scheduling must have no observable effect on the output.
    for model in [mobilenet_v1(QuantScheme::Mixed), resnet8(QuantScheme::Int8)] {
        let parallel = Compiler::new()
            .with_deploy(DeployConfig::Both)
            .compile(&model.graph)
            .expect("parallel compile");
        let sequential = Compiler::new()
            .with_deploy(DeployConfig::Both)
            .with_lower_options(LowerOptions {
                parallel: false,
                ..LowerOptions::default()
            })
            .compile(&model.graph)
            .expect("sequential compile");
        assert_eq!(parallel, sequential, "{}", model.name);
        assert_eq!(
            serde_json::to_string(&parallel).expect("serializes"),
            serde_json::to_string(&sequential).expect("serializes"),
            "{} parallel vs sequential bytes",
            model.name
        );
    }
}

#[test]
fn warm_tile_cache_changes_stats_but_not_the_artifact() {
    let model = mobilenet_v1(QuantScheme::Int8);
    let compiler = Compiler::new().with_deploy(DeployConfig::Both);
    let cold = compiler.compile(&model.graph).expect("cold compile");
    let warm = compiler.compile(&model.graph).expect("warm compile");

    // Identical product, byte for byte.
    assert_eq!(cold, warm);
    assert_eq!(
        serde_json::to_string(&cold).expect("serializes"),
        serde_json::to_string(&warm).expect("serializes"),
    );

    // MobileNet repeats block geometries, so even the cold compile hits
    // the cache within itself...
    assert!(cold.stats.regions > 0);
    assert!(
        cold.stats.cache_hits >= 1,
        "repeated blocks should hit in-compile: {:?}",
        cold.stats
    );
    assert!(cold.stats.solves_performed > 0);
    // ...and the warm compile is answered entirely from the cache.
    assert_eq!(warm.stats.solves_performed, 0, "{:?}", warm.stats);
    assert_eq!(warm.stats.cache_hits, warm.stats.regions as u64);
    assert_eq!(compiler.tile_cache().solves(), cold.stats.solves_performed);
}

#[test]
fn tile_cache_memoizes_infeasible_solves() {
    // Negative results are cached too: a geometry that cannot fit the
    // budget costs one solver invocation, and every later ask for the
    // same (geometry, budget, objective) triple is answered from the
    // cache — same error, no re-solve.
    use htvm::{LayerGeometry, MemoryBudget, TileCache, TilingObjective};
    let cache = TileCache::new();
    let geom = LayerGeometry::dense(4096, 4096);
    let budget = MemoryBudget::unified(4);
    let objective = TilingObjective::memory_only();

    let (first, hit) = cache.solve_cached(&geom, &budget, &objective);
    assert!(first.is_err(), "a 16 MB dense layer cannot tile into 4 B");
    assert!(!hit, "first solve is a miss");
    assert_eq!(cache.solves(), 1);
    assert_eq!(cache.hits(), 0);

    let (second, hit) = cache.solve_cached(&geom, &budget, &objective);
    assert!(hit, "second solve must be served from the negative entry");
    assert_eq!(cache.solves(), 1, "the solver must not run again");
    assert_eq!(cache.hits(), 1);
    assert_eq!(
        format!("{:?}", first.unwrap_err()),
        format!("{:?}", second.unwrap_err()),
        "cached error matches the original"
    );
}

#[test]
fn tracing_is_observation_only() {
    // The tracer may watch the pipeline but never steer it: compiling
    // with tracing enabled must produce an artifact byte-identical to
    // the untraced one, and the simulated cycle counts must match — the
    // zero-cost-when-disabled guarantee from docs/OBSERVABILITY.md, read
    // in both directions.
    let model = resnet8(QuantScheme::Mixed);
    let plain = Compiler::new().with_deploy(DeployConfig::Both);
    let tracer = htvm::Tracer::new();
    let traced = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .with_tracer(tracer.clone());

    let a = plain.compile(&model.graph).expect("untraced compile");
    let b = traced.compile(&model.graph).expect("traced compile");
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes"),
        "artifacts are byte-identical with tracing on vs off"
    );

    let machine = Machine::new(*plain.platform());
    let ra = machine.run(&a.program, &[model.input(3)]).expect("runs");
    let rb = machine.run(&b.program, &[model.input(3)]).expect("runs");
    assert_eq!(ra.outputs, rb.outputs);
    assert_eq!(ra.total_cycles(), rb.total_cycles());
    assert_eq!(ra.layers, rb.layers);

    // And the trace actually observed the compile: every phase span is
    // present, on the phases track, with a parseable chrome export.
    let trace = tracer.take(htvm::TimeDomain::WallMicros, htvm::tracks::compile());
    for phase in [
        "verify",
        "fold_constants",
        "partition",
        "solve",
        "emit",
        "l2_plan",
    ] {
        assert!(
            trace.span(phase).is_some(),
            "missing {phase} span in {:?}",
            trace.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    let solve = trace.span("solve").expect("solve span");
    assert_eq!(
        solve.arg_u64("regions"),
        Some(b.stats.regions as u64),
        "span args mirror CompileStats"
    );
    assert!(
        trace.on_track(htvm::tracks::REGIONS).count() >= b.stats.regions,
        "every region solve gets its own span"
    );
    let chrome: serde_json::Value =
        serde_json::from_str(&trace.to_chrome_trace()).expect("chrome export is valid JSON");
    assert!(!chrome["traceEvents"].as_array().expect("array").is_empty());
}

#[test]
fn artifact_serialization_round_trips() {
    // Artifacts are serde-serializable (bench output, caching); a JSON
    // round trip must preserve the program exactly.
    let model = toyadmos_dae(QuantScheme::Int8);
    let artifact = Compiler::new()
        .with_deploy(DeployConfig::Digital)
        .compile(&model.graph)
        .expect("compiles");
    let json = serde_json::to_string(&artifact).expect("serializes");
    let back: htvm::Artifact = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(artifact, back);
}

#[test]
fn artifacts_carrying_a_dma_table_still_load() {
    // Earlier builds persisted every accelerator step's pre-linearized DMA
    // descriptor list as `program.dma` and a CPU fallback graph per step
    // in the program's `"fallbacks"` table, under the same compiler
    // stamp. The simulator now derives both from the step descriptor at
    // run time, so a warm restart must read such an artifact, ignore the
    // tables, and run it exactly like a freshly compiled one — engine
    // faults included.
    let model = ds_cnn(QuantScheme::Mixed);
    let compiler = Compiler::new().with_deploy(DeployConfig::Both);
    let artifact = compiler.compile(&model.graph).expect("compiles");
    let mut entries = Vec::new();
    let mut fallbacks = Vec::new();
    for (idx, step) in artifact.program.steps.iter().enumerate() {
        if let htvm::Step::Accel {
            engine,
            desc,
            input,
            ..
        } = step
        {
            let decl = artifact.program.buffer(*input);
            let mut b = htvm::GraphBuilder::new();
            let x = b.input("x", decl.shape.dims(), decl.dtype);
            let y = b.relu(x).expect("relu builds");
            let graph = b.finish(&[y]).expect("graph builds");
            fallbacks.push(serde_json::json!([
                idx,
                {
                    "name": format!("{}_cpu_fallback", desc.name),
                    "graph": serde_json::to_value(&graph),
                }
            ]));
            let step_dma = htvm_soc::linearize_step(compiler.platform(), *engine, desc);
            let descriptors: Vec<_> = step_dma
                .descriptors
                .iter()
                .map(|d| {
                    serde_json::json!({
                        "dir": format!("{:?}", d.dir),
                        "bytes": d.bytes,
                        "chunks": d.chunks,
                    })
                })
                .collect();
            entries.push(serde_json::json!([
                idx,
                {
                    "n_tiles": step_dma.n_tiles,
                    "compute": step_dma.compute,
                    "pool": step_dma.pool,
                    "analog_weight": step_dma.analog_weight,
                    "descriptors": descriptors,
                }
            ]));
        }
    }
    assert!(entries.len() > 1, "ds_cnn/both has accelerator steps");
    let table = serde_json::json!({
        "platform_digest": 10999781975724145071u64,
        "entries": entries,
    });

    let mut value = serde_json::to_value(&artifact);
    let serde_json::Value::Object(fields) = &mut value else {
        panic!("artifacts serialize as objects");
    };
    let (_, program) = fields
        .iter_mut()
        .find(|(k, _)| k == "program")
        .expect("artifacts carry a program");
    let serde_json::Value::Object(program_fields) = program else {
        panic!("programs serialize as objects");
    };
    program_fields.push(("dma".to_string(), table));
    program_fields.push((
        "fallbacks".to_string(),
        serde_json::json!({ "entries": fallbacks }),
    ));
    let persisted = serde_json::to_string(&value).expect("serializes");
    assert!(persisted.contains("\"dma\":{\"platform_digest\""));
    assert!(persisted.contains("\"fallbacks\":{\"entries\":[["));

    let loaded: htvm::Artifact = serde_json::from_str(&persisted).expect("parent artifact loads");
    assert_eq!(loaded, artifact);
    let machine = Machine::new(*compiler.platform());
    let input = [model.input(7)];
    assert_eq!(
        machine.run(&loaded.program, &input).expect("runs"),
        machine.run(&artifact.program, &input).expect("runs")
    );
    for (idx, step) in artifact.program.steps.iter().enumerate() {
        if let htvm::Step::Accel { engine, .. } = step {
            let plan = htvm::FaultPlan::none().with_event(htvm::FaultEvent::EngineOffline {
                engine: *engine,
                layer: idx,
            });
            let fresh = machine
                .run_with_faults(&artifact.program, &input, &plan)
                .expect("degrades to the CPU");
            assert!(fresh.counters.engine_fallbacks >= 1, "step {idx}");
            assert_eq!(
                machine
                    .run_with_faults(&loaded.program, &input, &plan)
                    .expect("degrades to the CPU"),
                fresh,
                "engine off at step {idx}"
            );
        }
    }
}
