let () =
  Alcotest.run "amos"
    (Test_ir.suites @ Test_tensor.suites @ Test_workloads.suites
    @ Test_hwabs.suites @ Test_matching.suites @ Test_memo.suites
    @ Test_schedule.suites
    @ Test_codegen.suites @ Test_sim.suites @ Test_explore.suites
    @ Test_baselines.suites @ Test_compiler.suites @ Test_memory_map.suites @ Test_workloads2.suites @ Test_codegen2.suites @ Test_mapping2.suites @ Test_sim2.suites @ Test_plan_io.suites @ Test_graph.suites @ Test_dsl.suites @ Test_misc.suites
    @ Test_service.suites @ Test_faults.suites @ Test_migrate.suites
    @ Test_economy.suites @ Test_props.suites @ Test_fingerprint.suites
    @ Test_server.suites
    @ Test_admission.suites @ Test_fleet.suites @ Test_chaos.suites
    @ Test_throughput.suites @ Test_model_pins.suites @ Test_learn.suites)
