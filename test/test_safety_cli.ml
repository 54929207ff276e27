(* CLI pins for the untimed state-graph analyses: [cutsets], [fmea],
   [fdir], [diagnosability] and [verify], with the full stdout and the
   exit status of each invocation.  The first eight are the ones the
   README and the tutorial document; the rest cover the dot export, a
   counterexample that mixes rate and immediate moves, and a walk over
   the 1640 states of the generated sensor/filter model at n = 4.  The
   refusals pin the messages for non-Boolean goals and out-of-range
   flags. *)

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
  let sf4 = Filename.temp_file "slimsim_sf4" ".slim" in
  Fun.protect
    ~finally:(fun () -> Sys.remove sf4)
    (fun () ->
      Out_channel.with_open_bin sf4 (fun oc ->
          output_string oc (Slimsim_models.Sensor_filter.source ~n:4));
      pin [ "verify"; sf4; "-i"; "true" ] "invariant holds (1640 states explored)\n")

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
    ]

let suite =
  [
    Alcotest.test_case "safety CLI pins" `Quick test_pins;
    Alcotest.test_case "safety CLI refusals" `Quick test_refusals;
  ]
