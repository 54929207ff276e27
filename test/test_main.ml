let () =
  Alcotest.run "slimsim"
    [
      ("intervals", Test_intervals.suite);
      ("stats", Test_stats.suite);
      ("sta", Test_sta.suite);
      ("slim", Test_slim.suite);
      ("props", Test_props.suite);
      ("translate", Test_translate.suite);
      ("sim", Test_sim.suite);
      ("compiled", Test_compiled.suite);
      ("oracle", Test_oracle.suite);
      ("obs", Test_obs.suite);
      ("ctmc", Test_ctmc.suite);
      ("safety", Test_safety.suite);
      ("analyze", Test_analyze.suite);
      ("prepass", Test_prepass.suite);
      ("features", Test_features.suite);
      ("robustness", Test_robustness.suite);
      ("supervisor", Test_supervisor.suite);
      ("campaign", Test_campaign.suite);
      ("mlmc", Test_mlmc.suite);
      ("cost", Test_cost.suite);
      ("serve", Test_serve.suite);
      ("integration", Test_integration.suite);
      ("dist", Test_dist.suite);
    ]
