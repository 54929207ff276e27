(* CLI pins for the untimed state-graph analyses: [cutsets], [fmea],
   [fdir], [diagnosability] and [verify], with the full stdout and the
   exit status of each invocation.  The first eight are the ones the
   README and the tutorial document; the rest cover the dot export, a
   counterexample that mixes rate and immediate moves, walks over
   the 1640 and 28808 states of the generated sensor/filter models at
   n = 4 and n = 6, the four analyses on n = 4, FMEA on a queue where
   most basic events are not enabled at the base state (and so are not
   injected), and a cut set of order 20.  The refusals pin the messages for non-Boolean goals
   and out-of-range flags; the [exact] pins show the CTMC pipeline's
   answers on small chains. *)

let dir = Filename.dirname Sys.executable_name
let model name = Filename.concat dir ("../examples/models/" ^ name)

(* stdout and stderr of one CLI run, which must exit with [code] *)
let run_cli ?(code = 0) args =
  let out = Filename.temp_file "slimsim_safety" ".out" in
  let err = Filename.temp_file "slimsim_safety" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let bin = Filename.concat dir "../bin/slimsim_cli.exe" in
      Alcotest.(check int) (String.concat " " args ^ ": exit code") code
        (Sys.command (Filename.quote_command bin ~stdout:out ~stderr:err args));
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (read out, read err))

let pin ?code args expected =
  let out, _ = run_cli ?code args in
  Alcotest.(check string) (String.concat " " args) expected out

let heater = model "heater.slim"
let sf2 = model "sensor_filter_2.slim"
let broken = "heater in mode broken"
let exhausted = "sensors.exhausted or filters.exhausted"

(* [f file], with [file] the generated sensor/filter model of size [n] *)
let with_sensor_filter n f =
  let file = Filename.temp_file (Printf.sprintf "slimsim_sf%d" n) ".slim" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Slimsim_models.Sensor_filter.source ~n));
      f file)

let test_pins () =
  pin [ "cutsets"; heater; "-g"; broken; "--horizon"; "300" ]
    {|top event: heater in mode broken
  MCS 1 (order 1):
    heater#HeaterFail: ok -> broken (rate 0.01)

P(MCS 1 by 300) = 9.502e-01
P(top by 300) ~ 9.502e-01  (Esary-Proschan)
|};
  pin [ "fmea"; heater; "-g"; broken ]
    ("component                    failure mode                                 \
      rate       failure  effects\n\
      heater#HeaterFail            heater#HeaterFail: ok -> broken              \
      0.01       SYSTEM   \n\n");
  pin [ "cutsets"; sf2; "-g"; exhausted; "--horizon"; "1800" ]
    {|top event: sensors.exhausted or filters.exhausted
  MCS 1 (order 2):
    sensors.s1#SensorFail: ok -> failed (rate 0.001)
    sensors.s2#SensorFail: ok -> failed (rate 0.001)
  MCS 2 (order 2):
    filters.f1#FilterFail: ok -> failed (rate 0.0005)
    filters.f2#FilterFail: ok -> failed (rate 0.0005)

P(MCS 1 by 1800) = 6.967e-01
P(MCS 2 by 1800) = 3.522e-01
P(top by 1800) ~ 8.035e-01  (Esary-Proschan)
|};
  pin [ "fmea"; sf2; "-g"; exhausted ]
    {|component                    failure mode                                 rate       failure  effects
sensors.s1#SensorFail        sensors.s1#SensorFail: ok -> failed          0.001      -        sensors.s1.value#inj: 3->9
sensors.s2#SensorFail        sensors.s2#SensorFail: ok -> failed          0.001      -        sensors.s2.value#inj: 3->9
filters.f1#FilterFail        filters.f1#FilterFail: ok -> failed          0.0005     -        filters.f1.value#inj: 12->0
filters.f2#FilterFail        filters.f2#FilterFail: ok -> failed          0.0005     -        filters.f2.value#inj: 12->0

|};
  pin [ "fdir"; heater; "-o"; "heater.temp_ok"; "--settle"; "40" ]
    {|failure mode                                 detected  isolated  recovered  signature
heater#HeaterFail: ok -> broken              yes       yes       yes        heater.temp_ok=false

|};
  pin [ "fdir"; model "gps.slim"; "-o"; "gps.measurement"; "--settle"; "150" ]
    {|failure mode                                 detected  isolated  recovered  signature
gps#GPSFail: ok -> transient                 yes       NO        yes        gps.measurement=false
gps#GPSFail: ok -> hot                       yes       NO        yes        gps.measurement=false
gps#GPSFail: ok -> dead                      yes       NO        NO         gps.measurement=false

|};
  pin [ "diagnosability"; heater; "-o"; "heater.temp_ok"; "--diagnosis"; broken ]
    {|NOT diagnosable (2 states, 1 observation classes)
ambiguous observation {heater.temp_ok=false}:
  diagnosis holds:   main@fine, ctrl@booting, heater@idle, heater#HeaterFail@broken
  diagnosis fails:   main@fine, ctrl@booting, heater@idle, heater#HeaterFail@ok

|};
  pin [ "verify"; heater; "-i"; "heater.temp_ok => heater in mode hot" ]
    "invariant holds (2 states explored)\n";
  pin [ "cutsets"; heater; "-g"; broken; "--dot" ]
    {|digraph fault_tree {
  rankdir=BT;
  top [label="heater in mode broken" shape=box style=filled fillcolor=salmon];
  or [label="OR" shape=invtriangle];
  or -> top;
  and0 [label="AND" shape=triangle];
  and0 -> or;
  be_3_0 [label="heater#HeaterFail: ok -> broken\nrate 0.01" shape=circle];
  be_3_0 -> and0;
}
|};
  pin ~code:2 [ "verify"; sf2; "-i"; "not (" ^ exhausted ^ ")" ]
    {|invariant VIOLATED (39 states explored); counterexample:
  sensors.s1#SensorFail: ok -> failed (rate 0.001)
  sensors: use1 -> use2
  sensors.s2#SensorFail: ok -> failed (rate 0.001)
  sensors: use2 -> dead
  violating state: sensors=dead, sensors.s1=run, sensors.s1#SensorFail=failed, sensors.s2=run, sensors.s2#SensorFail=failed, filters=use1, filters.f1=run, filters.f1#FilterFail=ok, filters.f2=run, filters.f2#FilterFail=ok

|};
  with_sensor_filter 4 (fun sf4 ->
      pin [ "verify"; sf4; "-i"; "true" ] "invariant holds (1640 states explored)\n");
  with_sensor_filter 6 (fun sf6 ->
      pin [ "verify"; sf6; "-i"; "true" ] "invariant holds (28808 states explored)\n");
  with_sensor_filter 4 (fun sf4 ->
      pin [ "cutsets"; sf4; "-g"; exhausted; "--horizon"; "1800"; "--max-order"; "4" ]
        {|top event: sensors.exhausted or filters.exhausted
  MCS 1 (order 4):
    sensors.s1#SensorFail: ok -> failed (rate 0.001)
    sensors.s2#SensorFail: ok -> failed (rate 0.001)
    sensors.s3#SensorFail: ok -> failed (rate 0.001)
    sensors.s4#SensorFail: ok -> failed (rate 0.001)
  MCS 2 (order 4):
    filters.f1#FilterFail: ok -> failed (rate 0.0005)
    filters.f2#FilterFail: ok -> failed (rate 0.0005)
    filters.f3#FilterFail: ok -> failed (rate 0.0005)
    filters.f4#FilterFail: ok -> failed (rate 0.0005)

P(MCS 1 by 1800) = 4.854e-01
P(MCS 2 by 1800) = 1.240e-01
P(top by 1800) ~ 5.492e-01  (Esary-Proschan)
|};
      pin [ "fmea"; sf4; "-g"; exhausted ]
        {|component                    failure mode                                 rate       failure  effects
sensors.s1#SensorFail        sensors.s1#SensorFail: ok -> failed          0.001      -        sensors.s1.value#inj: 3->9
sensors.s2#SensorFail        sensors.s2#SensorFail: ok -> failed          0.001      -        sensors.s2.value#inj: 3->9
sensors.s3#SensorFail        sensors.s3#SensorFail: ok -> failed          0.001      -        sensors.s3.value#inj: 3->9
sensors.s4#SensorFail        sensors.s4#SensorFail: ok -> failed          0.001      -        sensors.s4.value#inj: 3->9
filters.f1#FilterFail        filters.f1#FilterFail: ok -> failed          0.0005     -        filters.f1.value#inj: 12->0
filters.f2#FilterFail        filters.f2#FilterFail: ok -> failed          0.0005     -        filters.f2.value#inj: 12->0
filters.f3#FilterFail        filters.f3#FilterFail: ok -> failed          0.0005     -        filters.f3.value#inj: 12->0
filters.f4#FilterFail        filters.f4#FilterFail: ok -> failed          0.0005     -        filters.f4.value#inj: 12->0

|};
      (* undetected failure modes end in an empty, padded signature column *)
      let undetected mode = Printf.sprintf "%-44s NO        NO        NO         \n" mode in
      pin [ "fdir"; sf4; "-o"; "sensors.s1.value,filters.f1.value"; "--settle"; "40" ]
        ("failure mode                                 detected  isolated  recovered  signature\n"
        ^ "sensors.s1#SensorFail: ok -> failed          yes       yes       NO         \
           sensors.s1.value=9\n"
        ^ undetected "sensors.s2#SensorFail: ok -> failed"
        ^ undetected "sensors.s3#SensorFail: ok -> failed"
        ^ undetected "sensors.s4#SensorFail: ok -> failed"
        ^ "filters.f1#FilterFail: ok -> failed          yes       yes       NO         \
           filters.f1.value=0\n"
        ^ undetected "filters.f2#FilterFail: ok -> failed"
        ^ undetected "filters.f3#FilterFail: ok -> failed"
        ^ undetected "filters.f4#FilterFail: ok -> failed"
        ^ "\n");
      pin
        [ "diagnosability"; sf4; "-o"; "sensors.s1.value,filters.f1.value"; "--diagnosis";
          exhausted; "--max-faults"; "4" ]
        {|NOT diagnosable (163 states, 4 observation classes)
ambiguous observation {sensors.s1.value=9, filters.f1.value=0}:
  diagnosis holds:   sensors@dead, sensors.s1@run, sensors.s1#SensorFail@failed, sensors.s2@run, sensors.s2#SensorFail@failed, sensors.s3@run, sensors.s3#SensorFail@failed, sensors.s4@run, sensors.s4#SensorFail@failed, filters@use1, filters.f1@run, filters.f1#FilterFail@ok, filters.f2@run, filters.f2#FilterFail@ok, filters.f3@run, filters.f3#FilterFail@ok, filters.f4@run, filters.f4#FilterFail@ok
  diagnosis fails:   sensors@use2, sensors.s1@run, sensors.s1#SensorFail@failed, sensors.s2@run, sensors.s2#SensorFail@ok, sensors.s3@run, sensors.s3#SensorFail@ok, sensors.s4@run, sensors.s4#SensorFail@ok, filters@use2, filters.f1@run, filters.f1#FilterFail@failed, filters.f2@run, filters.f2#FilterFail@ok, filters.f3@run, filters.f3#FilterFail@ok, filters.f4@run, filters.f4#FilterFail@ok
ambiguous observation {sensors.s1.value=3, filters.f1.value=0}:
  diagnosis holds:   sensors@use1, sensors.s1@run, sensors.s1#SensorFail@ok, sensors.s2@run, sensors.s2#SensorFail@ok, sensors.s3@run, sensors.s3#SensorFail@ok, sensors.s4@run, sensors.s4#SensorFail@ok, filters@dead, filters.f1@run, filters.f1#FilterFail@failed, filters.f2@run, filters.f2#FilterFail@failed, filters.f3@run, filters.f3#FilterFail@failed, filters.f4@run, filters.f4#FilterFail@failed
  diagnosis fails:   sensors@use1, sensors.s1@run, sensors.s1#SensorFail@ok, sensors.s2@run, sensors.s2#SensorFail@ok, sensors.s3@run, sensors.s3#SensorFail@ok, sensors.s4@run, sensors.s4#SensorFail@ok, filters@use2, filters.f1@run, filters.f1#FilterFail@failed, filters.f2@run, filters.f2#FilterFail@ok, filters.f3@run, filters.f3#FilterFail@ok, filters.f4@run, filters.f4#FilterFail@ok

|});
  (* FMEA injects a basic event only where it is enabled: at the base
     state, q0, that is the first arrival alone *)
  pin [ "fmea"; model "mm1k.slim"; "-g"; "q = 3" ]
    {|component                    failure mode                                 rate       failure  effects
main                         main: q0 -> q1                               0.8        -        q: 0->1
main                         main: q1 -> q2                               0.8        -        not enabled initially
main                         main: q2 -> q3                               0.8        -        not enabled initially
main                         main: q3 -> q4                               0.8        -        not enabled initially
main                         main: q1 -> q0                               1          -        not enabled initially
main                         main: q2 -> q1                               1          -        not enabled initially
main                         main: q3 -> q2                               1          -        not enabled initially
main                         main: q4 -> q3                               1          -        not enabled initially

|};
  pin [ "cutsets"; model "mm1k_20.slim"; "-g"; "q = 20"; "--max-order"; "25" ]
    ("top event: q = 20\n  MCS 1 (order 20):\n"
    ^ String.concat ""
        (List.init 20 (fun k -> Printf.sprintf "    main: q%d -> q%d (rate 0.8)\n" k (k + 1)))
    ^ "\n")

(* [exact] on small chains, the run time stripped: the bundled n = 2 and
   capacity-20 queue, the generated n = 4 with and without lumping, and
   an until whose hold fails in some states, so that bad states exist.
   The CI step "Exact pins" holds the md5 of the same lines. *)
let test_exact_pins () =
  let exact args expected =
    let out, _ = run_cli ("exact" :: args) in
    Alcotest.(check string) (String.concat " " args) expected
      (Str.global_replace (Str.regexp ", [0-9]+\\.[0-9]+s)$") ")" out)
  in
  let until_exhausted = "P(<> [0, 1800] " ^ exhausted ^ ")" in
  exact [ sf2; "-p"; until_exhausted ] "p = 0.803526806 (19 states, 9 after lumping)\n";
  with_sensor_filter 4 (fun sf4 ->
      exact [ sf4; "-p"; until_exhausted ] "p = 0.549242510 (271 states, 25 after lumping)\n";
      exact [ sf4; "-p"; until_exhausted; "--no-lump" ]
        "p = 0.549242510 (271 states, 271 after lumping)\n");
  exact
    [ model "mm1k_20.slim"; "-p"; "P(<> [0, 50] q = 20)" ]
    "p = 0.006376922 (210 states, 21 after lumping)\n";
  exact
    [ sf2; "-p"; "P(not filters.exhausted U [0, 1800] sensors.exhausted)" ]
    "p = 0.596205696 (19 states, 9 after lumping)\n"

(* A horizon of 1e300 on the queue: the chain settles within a few
   thousand steps, so the answer comes at once; walking the Poisson
   window from q t first never finished. *)
let test_exact_long_horizon () =
  let out = Filename.temp_file "slimsim_exact" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let bin = Filename.concat dir "../bin/slimsim_cli.exe" in
      let code =
        Sys.command
          (Filename.quote_command "timeout" ~stdout:out ~stderr:Filename.null
             [ "10"; bin; "exact"; model "mm1k_20.slim"; "-p"; "P(<> [0, 1e300] q = 20)" ])
      in
      Alcotest.(check int) "exit code (124: timed out)" 0 code;
      Alcotest.(check string) "answer" "p = 1.000000000 (210 states, 21 after lumping)\n"
        (Str.global_replace (Str.regexp ", [0-9]+\\.[0-9]+s)$") ")"
           (In_channel.with_open_bin out In_channel.input_all)))

(* A search bound far past the model's depth: [cutsets] and
   [diagnosability] stop once a round adds nothing, so the answer comes
   at once and equals the one under a bound of 3.  Running every empty
   round took 26 s at [--max-order 100000000]. *)
let test_huge_bounds () =
  let timed args =
    let out = Filename.temp_file "slimsim_bound" ".out" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let bin = Filename.concat dir "../bin/slimsim_cli.exe" in
        let code =
          Sys.command
            (Filename.quote_command "timeout" ~stdout:out ~stderr:Filename.null
               ("10" :: bin :: args))
        in
        Alcotest.(check int) (String.concat " " args ^ ": exit code (124: timed out)") 0 code;
        In_channel.with_open_bin out In_channel.input_all)
  in
  List.iter
    (fun (args, flag) ->
      Alcotest.(check string)
        (String.concat " " args ^ " " ^ flag ^ " 100000000")
        (timed (args @ [ flag; "3" ]))
        (timed (args @ [ flag; "100000000" ])))
    [
      ([ "cutsets"; heater; "-g"; broken ], "--max-order");
      ([ "diagnosability"; heater; "-o"; "heater.temp_ok"; "--diagnosis"; broken ], "--max-faults");
    ]

(* Refusals: exit 1 with the message on stderr and nothing on stdout,
   never an uncaught exception (cmdliner's 125). *)
let test_refusals () =
  List.iter
    (fun (args, msg) ->
      let out, err = run_cli ~code:1 args in
      Alcotest.(check (pair string string)) (String.concat " " args) ("", msg ^ "\n") (out, err))
    [
      ([ "cutsets"; heater; "-g"; "3" ], "type error: expected a Boolean, got an integer");
      ([ "fmea"; heater; "-g"; "3" ], "type error: expected a Boolean, got an integer");
      ( [ "diagnosability"; heater; "-o"; "heater.temp_ok"; "--diagnosis"; "3" ],
        "type error: expected a Boolean, got an integer" );
      ([ "verify"; heater; "-i"; "3" ], "type error: expected a Boolean, got an integer");
      ([ "cutsets"; heater; "-g"; broken; "--horizon=-3" ], "slimsim: --horizon must be >= 0");
      ([ "cutsets"; heater; "-g"; broken; "--horizon=nan" ], "slimsim: --horizon must be >= 0");
      ([ "cutsets"; heater; "-g"; broken; "--max-order=-1" ], "slimsim: --max-order must be >= 0");
      ( [ "fdir"; heater; "-o"; "heater.temp_ok"; "--settle"; "nan" ],
        "slimsim: --settle must be >= 0" );
      ( [ "fdir"; heater; "-o"; "heater.temp_ok"; "--settle=-5" ],
        "slimsim: --settle must be >= 0" );
      ( [ "diagnosability"; heater; "-o"; "heater.temp_ok"; "--diagnosis"; broken;
          "--max-faults=-1" ],
        "slimsim: --max-faults must be >= 0" );
      ([ "verify"; heater; "-i"; "true"; "--max-states=-5" ], "slimsim: --max-states must be positive");
      ( [ "exact"; sf2; "-p"; "P(<> [0, 1800] " ^ exhausted ^ ")"; "--max-states"; "0" ],
        "slimsim: --max-states must be positive" );
      ( [ "exact"; sf2; "-p"; "P(<> [0, 1800] " ^ exhausted ^ ")"; "--max-states=-5" ],
        "slimsim: --max-states must be positive" );
    ]

let suite =
  [
    Alcotest.test_case "safety CLI pins" `Quick test_pins;
    Alcotest.test_case "safety CLI refusals" `Quick test_refusals;
    Alcotest.test_case "exact CLI pins" `Quick test_exact_pins;
    Alcotest.test_case "exact: long horizon" `Quick test_exact_long_horizon;
    Alcotest.test_case "search bounds past the model" `Quick test_huge_bounds;
  ]
