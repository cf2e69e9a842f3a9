let () =
  Alcotest.run "tgates"
    [
      ("bigint", Test_bigint.suite);
      ("linalg", Test_linalg.suite);
      ("cliffordt", Test_cliffordt.suite);
      ("gridsynth", Test_gridsynth.suite);
      ("trasyn", Test_trasyn.suite);
      ("circuit", Test_circuit.suite);
      ("sim", Test_sim.suite);
      ("optimizer", Test_optimizer.suite);
      ("pipeline", Test_pipeline.suite);
      ("sk", Test_sk.suite);
      ("edge", Test_edge.suite);
      ("extensions", Test_extensions.suite);
      ("qasm", Test_qasm.suite);
      ("generators", Test_generators.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("telemetry", Test_metrics.suite);
      ("robust", Test_robust.suite);
      ("synth", Test_synth.suite);
      ("store", Test_store.suite);
      ("server", Test_server.suite);
      ("gateset", Test_gateset.suite);
      ("stream", Test_stream.suite);
      ("golden", Test_golden.suite);
    ]
