(* Writes the generated bundled models under examples/models; with
   [sensor_filter N FILE], writes the sensor/filter model of size N to
   FILE instead. *)
let () =
  let w name s = Out_channel.with_open_text name (fun oc -> output_string oc s) in
  match Sys.argv with
  | [| _; "sensor_filter"; n; file |] -> w file (Slimsim_models.Sensor_filter.source ~n:(int_of_string n))
  | _ ->
    w "examples/models/gps.slim" Slimsim_models.Gps.source;
    w "examples/models/gps_nominal.slim" Slimsim_models.Gps.nominal_only;
    w "examples/models/sensor_filter_2.slim" (Slimsim_models.Sensor_filter.source ~n:2);
    w "examples/models/sensor_filter_4.slim" (Slimsim_models.Sensor_filter.source ~n:4);
    w "examples/models/launcher_permanent.slim" (Slimsim_models.Launcher.source ~variant:`Permanent);
    w "examples/models/launcher_recoverable.slim" (Slimsim_models.Launcher.source ~variant:`Recoverable);
    w "examples/models/sensor_filter_2_timed.slim" (Slimsim_models.Sensor_filter.timed_source ~n:2);
    w "examples/models/mm1k.slim" (Slimsim_models.Queue_model.source ~arrival:0.8 ~service:1.0 ~capacity:4);
    w "examples/models/mm1k_20.slim" (Slimsim_models.Queue_model.source ~arrival:0.8 ~service:1.0 ~capacity:20)
