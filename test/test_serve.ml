(* Serve-layer tests: protocol encode/parse round-trips, LRU semantics
   of the compiled-network cache, fair-share accounting in the
   scheduler, and an in-process end-to-end run of the service — two
   tenants submitted concurrently over a real Unix socket, answers
   bit-identical to the one-shot Slimsim.check of the same submission. *)

module Protocol = Slimsim_serve.Protocol
module Cache = Slimsim_serve.Cache
module Scheduler = Slimsim_serve.Scheduler
module Service = Slimsim_serve.Service
module Json = Slimsim_obs.Json
module Generator = Slimsim_stats.Generator
module Strategy = Slimsim_sim.Strategy

let race_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  start: initial mode;
  good: mode;
  idle: mode;
transitions
  start -[rate 1.0 then v := true]-> good;
  start -[rate 0.5]-> idle;
end D.I;
root D.I;
|}

(* a semantically identical source with different bytes: same network
   hash, different source digest *)
let race_model_reformatted = "-- same network, other text\n" ^ race_model

let other_model =
  {|
device E
features
  w: out data port bool := false;
end E;
device implementation E.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 2.0 then w := true]-> b;
end E.I;
root E.I;
|}

let third_model =
  {|
device F
features
  u: out data port bool := false;
end F;
device implementation F.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 3.0 then u := true]-> b;
end F.I;
root F.I;
|}

(* --- protocol --- *)

let test_protocol_roundtrip () =
  let s =
    {
      Protocol.submit_defaults with
      tenant = "team-a";
      model_source = Some race_model;
      property = "P(<> [0, 2] d.v)";
      strategy = Strategy.Progressive;
      delta = 0.2;
      eps = 0.04;
      seed = 99L;
      generator = Generator.Chow_robbins;
      workers = 3;
      max_steps = Some 5000;
      on_divergence = `Drop;
    }
  in
  match Protocol.request_of_line (Json.to_string (Protocol.submit_to_json s)) with
  | Ok (Protocol.Submit s') ->
    Alcotest.(check string) "tenant" s.Protocol.tenant s'.Protocol.tenant;
    Alcotest.(check (option string)) "source" s.Protocol.model_source
      s'.Protocol.model_source;
    Alcotest.(check string) "property" s.Protocol.property s'.Protocol.property;
    Alcotest.(check string) "strategy"
      (Strategy.to_string s.Protocol.strategy)
      (Strategy.to_string s'.Protocol.strategy);
    Alcotest.(check (float 0.0)) "delta" s.Protocol.delta s'.Protocol.delta;
    Alcotest.(check (float 0.0)) "eps" s.Protocol.eps s'.Protocol.eps;
    Alcotest.(check int64) "seed" s.Protocol.seed s'.Protocol.seed;
    Alcotest.(check string) "generator"
      (Generator.kind_to_string s.Protocol.generator)
      (Generator.kind_to_string s'.Protocol.generator);
    Alcotest.(check int) "workers" s.Protocol.workers s'.Protocol.workers;
    Alcotest.(check (option int)) "max_steps" s.Protocol.max_steps
      s'.Protocol.max_steps;
    Alcotest.(check bool) "on_divergence" true (s'.Protocol.on_divergence = `Drop)
  | Ok _ -> Alcotest.fail "parsed as a non-submit request"
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_protocol_errors () =
  let fails line =
    match Protocol.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %s" line
  in
  fails "not json";
  fails "{}";
  fails {|{"op":"frobnicate"}|};
  fails {|{"op":"status"}|};
  (* missing id *)
  fails {|{"op":"submit","model_source":"x"}|};
  (* missing property *)
  fails {|{"op":"submit","property":"P(<> [0,1] v)"}|};
  (* missing model *)
  match Protocol.request_of_line {|{"op":"hello"}|} with
  | Ok Protocol.Hello -> ()
  | _ -> Alcotest.fail "hello must parse"

(* --- cache --- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  let load src =
    match Cache.load c ~source:src with
    | Ok (e, hit) -> (e, hit)
    | Error e -> Alcotest.failf "cache load failed: %s" e
  in
  let e1, h1 = load race_model in
  Alcotest.(check bool) "first is a miss" true (h1 = `Miss);
  let _, h2 = load race_model in
  Alcotest.(check bool) "repeat is a hit" true (h2 = `Hit);
  (* different bytes, same network: the staged engine is reused *)
  let e1', h3 = load race_model_reformatted in
  Alcotest.(check bool) "same network is a hit" true (h3 = `Hit);
  Alcotest.(check string) "same hash" e1.Cache.hash e1'.Cache.hash;
  Alcotest.(check bool) "same staged network" true
    (e1.Cache.compiled == e1'.Cache.compiled);
  (* lookup by hash alone (the model_hash submission form) *)
  (match Cache.find_hash c e1.Cache.hash with
  | Some e -> Alcotest.(check string) "find_hash" e1.Cache.hash e.Cache.hash
  | None -> Alcotest.fail "find_hash missed a resident network");
  let _, _ = load other_model in
  Alcotest.(check int) "two resident" 2 (Cache.length c);
  (* third distinct network evicts the least recently used *)
  let _, _ = load third_model in
  Alcotest.(check int) "capacity respected" 2 (Cache.length c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  (* race_model was LRU (other/third touched later): reloading it is a miss *)
  let _, h4 = load race_model in
  Alcotest.(check bool) "evicted entry is a miss again" true (h4 = `Miss)

(* --- scheduler --- *)

let test_scheduler_fairness () =
  let s = Scheduler.create () in
  (* tenant a floods the queue; tenant b has one campaign *)
  List.iter (fun x -> Scheduler.push s ~tenant:"a" x) [ "a1"; "a2"; "a3" ];
  Scheduler.push s ~tenant:"b" "b1";
  Alcotest.(check int) "pending" 4 (Scheduler.pending s);
  (* a starts (registered first, both at zero charge) and gets charged *)
  (match Scheduler.take s with
  | Some ("a", "a1") -> Scheduler.charge s ~tenant:"a" 100
  | x ->
    Alcotest.failf "expected a/a1, got %s"
      (match x with Some (t, i) -> t ^ "/" ^ i | None -> "none"));
  (* now b is the least-charged tenant with work *)
  (match Scheduler.take s with
  | Some ("b", "b1") -> Scheduler.charge s ~tenant:"b" 100
  | _ -> Alcotest.fail "fair share should pick tenant b next");
  Alcotest.(check int) "a charged" 100 (Scheduler.charged s ~tenant:"a");
  (* charges persist across empty queues: resubmitting doesn't reset *)
  Scheduler.push s ~tenant:"b" "b2";
  Scheduler.charge s ~tenant:"b" 1000;
  (match Scheduler.take s with
  | Some ("a", "a2") -> ()
  | _ -> Alcotest.fail "tenant a is now least charged");
  Scheduler.remove s (fun id -> id = "a3");
  (match Scheduler.take s with
  | Some ("b", "b2") -> ()
  | Some (t, i) -> Alcotest.failf "expected b/b2 after removal, got %s/%s" t i
  | None -> Alcotest.fail "queue should not be empty");
  Alcotest.(check int) "drained" 0 (Scheduler.pending s)

(* --- service end-to-end --- *)

let connect socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec retry n =
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Unix.sleepf 0.05;
      retry (n - 1)
  in
  retry 100;
  (fd, Unix.in_channel_of_descr fd)

let send fd line =
  let line = line ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line))

let recv ic =
  match Json.parse (input_line ic) with
  | Ok j -> j
  | Error e -> Alcotest.failf "malformed response: %s" e

let expect_ok name j =
  match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "%s: not ok: %s" name (Json.to_string j)

let str_field name key j =
  match Json.member key j with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "%s: missing %s in %s" name key (Json.to_string j)

let num_field name key j =
  match Json.member key j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "%s: missing %s in %s" name key (Json.to_string j)

let property = "P(<> [0, 2] v)"

let submit_line ~tenant ~seed =
  Json.to_string
    (Protocol.submit_to_json
       {
         Protocol.submit_defaults with
         tenant;
         model_source = Some race_model;
         property;
         delta = 0.1;
         eps = 0.1;
         seed;
       })

let test_service_end_to_end () =
  let dir = Filename.temp_file "slimsim_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "serve.sock" in
  let cfg =
    {
      (Service.default_config ~socket_path) with
      slice = 16;
      max_campaigns_per_tenant = 2;
    }
  in
  let server = Thread.create (fun () -> Service.run cfg) () in
  let fd, ic = connect socket_path in
  (* handshake advertises the tool version *)
  send fd {|{"op":"hello"}|};
  let hello = recv ic in
  expect_ok "hello" hello;
  Alcotest.(check string) "tool_version" Slimsim.tool_version
    (str_field "hello" "tool_version" hello);
  (* two tenants, interleaved campaigns over one connection *)
  send fd (submit_line ~tenant:"a" ~seed:11L);
  let ra = recv ic in
  expect_ok "submit a" ra;
  Alcotest.(check string) "cold submission compiles" "miss"
    (str_field "submit a" "cache" ra);
  send fd (submit_line ~tenant:"b" ~seed:23L);
  let rb = recv ic in
  expect_ok "submit b" rb;
  Alcotest.(check string) "same network from the cache" "hit"
    (str_field "submit b" "cache" rb);
  let ida = str_field "submit a" "id" ra
  and idb = str_field "submit b" "id" rb in
  send fd (Json.to_string (Json.Obj [ ("op", Json.String "wait"); ("id", Json.String ida) ]));
  let fa = recv ic in
  send fd (Json.to_string (Json.Obj [ ("op", Json.String "wait"); ("id", Json.String idb) ]));
  let fb = recv ic in
  expect_ok "final a" fa;
  expect_ok "final b" fb;
  Alcotest.(check string) "a done" "done" (str_field "final a" "state" fa);
  Alcotest.(check string) "b done" "done" (str_field "final b" "state" fb);
  (* service answers must be bit-identical to the one-shot pipeline *)
  let reference seed =
    let m = Result.get_ok (Slimsim.load_string race_model) in
    match
      Slimsim.check ~seed ~prepass:false m ~property ~strategy:Strategy.Asap
        ~delta:0.1 ~eps:0.1 ()
    with
    | Ok e -> e
    | Error e -> Alcotest.failf "reference check failed: %s" e
  in
  let check_against name final (e : Slimsim.estimate) =
    Alcotest.(check (float 0.0))
      (name ^ ": probability") e.Slimsim.probability
      (num_field name "probability" final);
    Alcotest.(check int)
      (name ^ ": paths") e.Slimsim.paths
      (int_of_float (num_field name "paths" final));
    Alcotest.(check int)
      (name ^ ": successes") e.Slimsim.successes
      (int_of_float (num_field name "successes" final))
  in
  check_against "tenant a" fa (reference 11L);
  check_against "tenant b" fb (reference 23L);
  (* admission control: tenant a may hold two unfinished campaigns; the
     finished ones above don't count against it *)
  send fd (submit_line ~tenant:"a" ~seed:1L);
  expect_ok "third a" (recv ic);
  (* stats reflect the cache and the per-tenant path accounting *)
  send fd {|{"op":"stats"}|};
  let stats = recv ic in
  expect_ok "stats" stats;
  Alcotest.(check int) "one resident network" 1
    (int_of_float (num_field "stats" "cache_entries" stats));
  Alcotest.(check bool) "cache hits counted" true
    (num_field "stats" "cache_hits" stats >= 2.0);
  (* live Prometheus exposition through the protocol *)
  send fd {|{"op":"metrics"}|};
  let metrics = recv ic in
  expect_ok "metrics" metrics;
  let exposition = str_field "metrics" "exposition" metrics in
  Alcotest.(check bool) "serve series exposed" true
    (let re = Str.regexp_string "slimsim_serve_cache_hits_total" in
     try
       ignore (Str.search_forward re exposition 0);
       true
     with Not_found -> false);
  send fd {|{"op":"shutdown"}|};
  expect_ok "shutdown" (recv ic);
  Thread.join server;
  Slimsim_obs.Metrics.set_enabled false;
  close_in_noerr ic;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path)

(* A submit whose delta or eps no generator accepts, or whose watchdog
   budget cannot be met, is refused with an error line; it must not take
   the service (and every tenant's campaigns) down with it. *)
let test_bad_submit_rejected () =
  let dir = Filename.temp_file "slimsim_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "serve.sock" in
  let server =
    Thread.create (fun () -> Service.run (Service.default_config ~socket_path)) ()
  in
  let fd, ic = connect socket_path in
  (* a dead service leaves the socket open: fail instead of hanging *)
  let answer line =
    send fd line;
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> Alcotest.failf "no answer to %s" line
    | _ -> recv ic
  in
  let submit f =
    Json.to_string
      (Protocol.submit_to_json
         (f
            {
              Protocol.submit_defaults with
              model_source = Some race_model;
              property;
              delta = 0.1;
              eps = 0.1;
              seed = 5L;
            }))
  in
  (* the valid submit with one field of the wrong JSON type *)
  let retyped key v =
    match Json.parse (submit Fun.id) with
    | Ok (Json.Obj fields) -> Json.to_string (Json.Obj ((key, v) :: List.remove_assoc key fields))
    | _ -> Alcotest.fail "the submit line is an object"
  in
  List.iter
    (fun (name, line, msg) ->
      let r = answer line in
      Alcotest.(check bool) (name ^ ": refused") true
        (Json.member "ok" r = Some (Json.Bool false));
      Alcotest.(check bool) (name ^ ": message") true
        (Astring_contains.contains (str_field name "error" r) msg))
    [
      ("delta 0", submit (fun s -> { s with Protocol.delta = 0.0 }), "delta must lie in (0, 1)");
      ( "eps 0",
        submit (fun s -> { s with Protocol.eps = 0.0 }),
        "eps must be positive and finite" );
      ( "max_steps 0",
        submit (fun s -> { s with Protocol.max_steps = Some 0 }),
        "submit: --max-steps must be positive" );
      ( "max_sim_time nan",
        submit (fun s -> { s with Protocol.max_sim_time = Some nan }),
        "submit: --max-sim-time must be positive" );
      ( "max_wall_per_path -1",
        submit (fun s -> { s with Protocol.max_wall_per_path = Some (-1.0) }),
        "submit: --max-wall-per-path must be positive" );
      ( "max_steps 0.0",
        retyped "max_steps" (Json.Float 0.0),
        {|submit: "max_steps" must be an integer|} );
      ("delta \"0\"", retyped "delta" (Json.String "0"), {|submit: "delta" must be a number|});
      ("strategy 3", retyped "strategy" (Json.Int 3), {|submit: "strategy" must be a string|});
    ];
  expect_ok "stats after the refusals" (answer {|{"op":"stats"}|});
  let r = answer (submit Fun.id) in
  expect_ok "valid submit" r;
  let final =
    answer
      (Json.to_string
         (Json.Obj
            [ ("op", Json.String "wait"); ("id", Json.String (str_field "submit" "id" r)) ]))
  in
  Alcotest.(check string) "valid campaign done" "done"
    (str_field "final" "state" final);
  expect_ok "shutdown" (answer {|{"op":"shutdown"}|});
  Thread.join server;
  Slimsim_obs.Metrics.set_enabled false;
  close_in_noerr ic

(* Every query form through the service answers what the one-shot
   pipeline ([Slimsim.check_cost], behind [slimsim simulate]) answers,
   field for field and bit for bit, wall time aside: E[...], D[...] and
   the multilevel generator, each submitted twice at once (workers 1 and
   2, so that their slices park); a query the pre-pass certifies, done
   at submit; and E[...] over a goal the pre-pass proves unreachable,
   refused with the facade's error. *)
let test_every_query_form () =
  let dir = Filename.temp_file "slimsim_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "serve.sock" in
  let cfg = { (Service.default_config ~socket_path) with max_workers = 2 } in
  let server = Thread.create (fun () -> Service.run cfg) () in
  let fd, ic = connect socket_path in
  let file name =
    Filename.concat (Filename.dirname Sys.executable_name) ("../examples/models/" ^ name)
  in
  let answer line =
    send fd line;
    recv ic
  in
  let submit (model, query, strategy, generator, eps) ~workers =
    answer
      (Json.to_string
         (Protocol.submit_to_json
            {
              Protocol.submit_defaults with
              model_source = Some (In_channel.with_open_bin (file model) In_channel.input_all);
              property = query;
              strategy;
              generator;
              eps;
              seed = 7L;
              workers;
            }))
  in
  let wait receipt =
    answer
      (Json.to_string
         (Json.Obj
            [ ("op", Json.String "wait"); ("id", Json.String (str_field "submit" "id" receipt)) ]))
  in
  let check_cost (model, query, strategy, generator, eps) =
    let m = Result.get_ok (Slimsim.load_file (file model)) in
    Slimsim.check_cost ~seed:7L ~generator m ~query ~strategy ~delta:0.05 ~eps ()
  in
  let rec fields = function
    | Slimsim.Cost_probability e ->
      [
        ("probability", Json.Float e.Slimsim.probability);
        ("ci_low", Json.Float e.Slimsim.ci_low);
        ("ci_high", Json.Float e.Slimsim.ci_high);
        ("paths", Json.Int e.Slimsim.paths);
        ("successes", Json.Int e.Slimsim.successes);
        ("deadlock_paths", Json.Int e.Slimsim.deadlock_paths);
        ("violated_paths", Json.Int e.Slimsim.violated_paths);
        ("errors", Json.Int e.Slimsim.errors);
        ("diverged_paths", Json.Int e.Slimsim.diverged_paths);
        ("dropped_paths", Json.Int e.Slimsim.dropped_paths);
        ("worker_restarts", Json.Int e.Slimsim.worker_restarts);
        ("interrupted", Json.Bool e.Slimsim.interrupted);
      ]
      @ Option.fold ~none:[] ~some:(fun c -> [ ("certificate", Json.String c) ])
          e.Slimsim.certificate
    | Slimsim.Cost_expected r | Slimsim.Cost_distribution r ->
      let module C = Slimsim_sim.Cost_run in
      [
        ("cost_mean", Json.Float r.C.cost_mean);
        ("cost_ci_low", Json.Float r.C.cost_ci_low);
        ("cost_ci_high", Json.Float r.C.cost_ci_high);
        ("cost_min", Json.Float r.C.cost_min);
        ("cost_max", Json.Float r.C.cost_max);
        ("sat_paths", Json.Int r.C.cost_samples);
      ]
      @ fields (Slimsim.Cost_probability (Slimsim.estimate_of ~complement:false r.C.reach))
  in
  (* every field of the outcome, encoded as the wire encodes it, and no
     other field than the job's identity and its wall time *)
  let same name outcome final =
    expect_ok name final;
    Alcotest.(check string) (name ^ ": state") "done" (str_field name "state" final);
    let expected = fields outcome in
    List.iter
      (fun (k, v) ->
        Alcotest.(check string) (name ^ ": " ^ k) (Json.to_string v)
          (Option.fold ~none:"missing" ~some:Json.to_string (Json.member k final)))
      expected;
    let keys = function Json.Obj kvs -> List.map fst kvs | _ -> [] in
    Alcotest.(check (list string)) (name ^ ": fields")
      (List.sort compare ("id" :: "ok" :: "state" :: "tenant" :: "wall_seconds" :: List.map fst expected))
      (List.sort compare (keys final))
  in
  let gps query =
    ("gps_nominal.slim", query, Strategy.Progressive, Generator.Chow_robbins, 0.5)
  in
  List.iter
    (fun (name, case) ->
      let reference =
        match check_cost case with Ok o -> o | Error e -> Alcotest.failf "%s: %s" name e
      in
      let r1 = submit case ~workers:1 in
      let r2 = submit case ~workers:2 in
      same (name ^ ", workers 1") reference (wait r1);
      same (name ^ ", workers 2") reference (wait r2))
    [
      ("E", gps "E[x ; <> [0, 300] measurement]");
      ("D", gps "D[x ; <> [0, 300] measurement]");
      ("mlmc", ("mm1k.slim", "P(<> [0, 5] q = 4)", Strategy.Asap, Generator.Mlmc, 0.01));
    ];
  let vacuous = ("mm1k.slim", "P(<> [0, 50] q < 0)", Strategy.Asap, Generator.Chernoff, 0.01) in
  let final = wait (submit vacuous ~workers:1) in
  same "P0 certificate" (Result.get_ok (check_cost vacuous)) final;
  Alcotest.(check string) "certified at submit" "P0" (str_field "P0" "certificate" final);
  let undefined =
    ("mm1k_priced.slim", "E[w ; <> [0, 50] q < 0]", Strategy.Asap, Generator.Chernoff, 0.01)
  in
  let refused = submit undefined ~workers:1 in
  Alcotest.(check bool) "E over a P0 goal refused" true
    (Json.member "ok" refused = Some (Json.Bool false));
  (match check_cost undefined with
  | Error e -> Alcotest.(check string) "the facade's error" e (str_field "E" "error" refused)
  | Ok _ -> Alcotest.fail "check_cost sampled an E over a P0 goal");
  expect_ok "shutdown" (answer {|{"op":"shutdown"}|});
  Thread.join server;
  Slimsim_obs.Metrics.set_enabled false;
  close_in_noerr ic

let suite =
  [
    Alcotest.test_case "protocol: submit roundtrip" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "protocol: malformed requests" `Quick
      test_protocol_errors;
    Alcotest.test_case "cache: LRU over network hashes" `Quick test_cache_lru;
    Alcotest.test_case "scheduler: fair share across tenants" `Quick
      test_scheduler_fairness;
    Alcotest.test_case "service: two tenants end-to-end" `Quick
      test_service_end_to_end;
    Alcotest.test_case "service: bad delta/eps refused, service survives"
      `Quick test_bad_submit_rejected;
    Alcotest.test_case "service: every query form equals simulate" `Quick
      test_every_query_form;
  ]
