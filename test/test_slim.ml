(* Tests for the SLIM frontend: lexer, parser, pretty-printer round
   trips, semantic analysis, instantiation and translation. *)

open Slimsim_slim

(* --- lexer --- *)

let toks src = List.map (fun t -> t.Token.tok) (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check bool) "keywords lowercase" true
    (toks "SYSTEM System system" = [ Token.KW "system"; Token.KW "system"; Token.KW "system"; Token.EOF ]);
  Alcotest.(check bool) "ident vs keyword" true
    (toks "systems" = [ Token.IDENT "systems"; Token.EOF ]);
  Alcotest.(check bool) "numbers" true
    (toks "42 4.5 1e3 2.5e-2" = [ Token.INT 42; Token.FLOAT 4.5; Token.FLOAT 1000.0; Token.FLOAT 0.025; Token.EOF ]);
  Alcotest.(check bool) "dotdot not eaten by float" true
    (toks "0.2 .. 0.3" = [ Token.FLOAT 0.2; Token.DOTDOT; Token.FLOAT 0.3; Token.EOF ]);
  Alcotest.(check bool) "int dotdot int" true
    (toks "2..3" = [ Token.INT 2; Token.DOTDOT; Token.INT 3; Token.EOF ]);
  Alcotest.(check bool) "operators" true
    (toks ":= -> <= >= != => = < >" =
       [ Token.ASSIGN; Token.ARROW; Token.LE; Token.GE; Token.NEQ; Token.IMPLIES; Token.EQ; Token.LT; Token.GT; Token.EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "comment to eol" true
    (toks "a -- this is a comment\nb" = [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ]);
  Alcotest.(check bool) "minus vs comment" true
    (toks "a - b" = [ Token.IDENT "a"; Token.MINUS; Token.IDENT "b"; Token.EOF ]);
  Alcotest.(check bool) "transition brackets" true
    (toks "-[x]->" = [ Token.MINUS; Token.LBRACKET; Token.IDENT "x"; Token.RBRACKET; Token.ARROW; Token.EOF ])

let test_lexer_errors () =
  match Lexer.tokenize "a $ b" with
  | exception Lexer.Lex_error (_, 1, _) -> ()
  | _ -> Alcotest.fail "expected a lex error"

(* --- expression parser --- *)

let parse_expr s =
  match Parser.parse_expression s with Ok e -> e | Error e -> Alcotest.fail e

let test_parser_precedence () =
  let open Ast in
  Alcotest.(check bool) "mul binds tighter" true
    (parse_expr "1 + 2 * 3" = E_binop (B_add, E_int 1, E_binop (B_mul, E_int 2, E_int 3)));
  Alcotest.(check bool) "and binds tighter than or" true
    (parse_expr "a or b and c"
    = E_binop (B_or, E_path [ "a" ], E_binop (B_and, E_path [ "b" ], E_path [ "c" ])));
  Alcotest.(check bool) "comparison below and" true
    (parse_expr "x < 1 and y > 2"
    = E_binop
        ( B_and,
          E_binop (B_lt, E_path [ "x" ], E_int 1),
          E_binop (B_gt, E_path [ "y" ], E_int 2) ));
  Alcotest.(check bool) "implies right assoc" true
    (parse_expr "a => b => c"
    = E_binop (B_implies, E_path [ "a" ], E_binop (B_implies, E_path [ "b" ], E_path [ "c" ])));
  Alcotest.(check bool) "unary minus" true
    (parse_expr "-x + 1" = E_binop (B_add, E_unop (U_neg, E_path [ "x" ]), E_int 1));
  Alcotest.(check bool) "not binds below comparison" true
    (parse_expr "not x = 1" = E_unop (U_not, E_binop (B_eq, E_path [ "x" ], E_int 1)));
  Alcotest.(check bool) "parens" true
    (parse_expr "(1 + 2) * 3" = E_binop (B_mul, E_binop (B_add, E_int 1, E_int 2), E_int 3));
  Alcotest.(check bool) "dotted path" true (parse_expr "a.b.c" = E_path [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "min function" true
    (parse_expr "min(x, 2)" = E_binop (B_min, E_path [ "x" ], E_int 2))

let test_parser_mode_atoms () =
  (match Parser.parse_expression ~allow_mode_atoms:true "gps in mode active" with
  | Ok (Ast.E_in_mode ([ "gps" ], "active")) -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "mode atoms off by default" true
    (Result.is_error (Parser.parse_expression "gps in mode active"))

let test_parser_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" src) true
        (Result.is_error (Parser.parse_expression src)))
    [ "1 +"; "(1"; "min(1)"; ""; "x in mode" ]

(* --- model parsing --- *)

let parse_model s =
  match Parser.parse_model s with Ok m -> m | Error e -> Alcotest.fail e

let test_parse_gps_model () =
  let m = parse_model Slimsim_models.Gps.source in
  Alcotest.(check bool) "root" true (m.Ast.root = ("Main", "Imp"));
  let types =
    List.filter_map (function Ast.D_comp_type ct -> Some ct.Ast.ct_name | _ -> None) m.Ast.declarations
  in
  Alcotest.(check (list string)) "component types" [ "GPS"; "Main" ] types;
  let ems =
    List.filter_map (function Ast.D_error_model em -> Some em.Ast.em_name | _ -> None) m.Ast.declarations
  in
  Alcotest.(check (list string)) "error models" [ "GPSFail" ] ems;
  let exts = List.filter_map (function Ast.D_extension e -> Some e | _ -> None) m.Ast.declarations in
  Alcotest.(check int) "one extension" 1 (List.length exts);
  Alcotest.(check int) "three injections" 3
    (List.length (List.hd exts).Ast.ex_injections)

let test_parse_transition_forms () =
  let src =
    {|
device D
features
  go: in event port;
  v: out data port int := 0;
end D;

device implementation D.I
subcomponents
  c: data clock;
modes
  a: initial mode while c <= 10.0;
  b: mode;
transitions
  a -[go when c >= 2.0 then v := v + 1]-> b;
  a -[rate 0.5]-> b;
  b -[when c >= 1.0]-> a;
  b -[then v := 0]-> a;
  b -[]-> a;
end D.I;

root D.I;
|}
  in
  let m = parse_model src in
  let ci =
    List.find_map (function Ast.D_comp_impl ci -> Some ci | _ -> None) m.Ast.declarations
    |> Option.get
  in
  Alcotest.(check int) "five transitions" 5 (List.length ci.Ast.ci_transitions);
  match ci.Ast.ci_transitions with
  | [ t1; t2; t3; t4; t5 ] ->
    Alcotest.(check bool) "event trigger" true (t1.Ast.t_trigger = Ast.Trig_event [ "go" ]);
    Alcotest.(check bool) "guard present" true (t1.Ast.t_guard <> None);
    Alcotest.(check int) "one effect" 1 (List.length t1.Ast.t_effects);
    Alcotest.(check bool) "rate trigger" true (t2.Ast.t_trigger = Ast.Trig_rate 0.5);
    Alcotest.(check bool) "bare guard" true (t3.Ast.t_trigger = Ast.Trig_none && t3.Ast.t_guard <> None);
    Alcotest.(check bool) "bare effect" true (t4.Ast.t_guard = None && t4.Ast.t_effects <> []);
    Alcotest.(check bool) "empty label" true
      (t5.Ast.t_trigger = Ast.Trig_none && t5.Ast.t_guard = None && t5.Ast.t_effects = [])
  | _ -> Alcotest.fail "expected five transitions"

let test_parse_rejects () =
  List.iter
    (fun (what, src) ->
      Alcotest.(check bool) what true (Result.is_error (Parser.parse_model src)))
    [
      ("missing root", "system S\nend S;");
      ("mismatched end", "system S\nend T;\nroot S.I;");
      ("duplicate root", "system S\nend S;\nroot S.I;\nroot S.I;");
      ("bad section", "system implementation S.I\nbananas\nend S.I;\nroot S.I;");
    ]

(* --- pretty-printer round trip --- *)

let test_roundtrip_gps () =
  let m1 = parse_model Slimsim_models.Gps.source in
  let printed = Pretty.model_to_string m1 in
  let m2 = parse_model printed in
  Alcotest.(check bool) "ast fixpoint under print+parse" true
    (Ast.strip_positions m1 = Ast.strip_positions m2)

let test_roundtrip_generated () =
  List.iter
    (fun src ->
      let m1 = parse_model src in
      let m2 = parse_model (Pretty.model_to_string m1) in
      Alcotest.(check bool) "roundtrip" true
        (Ast.strip_positions m1 = Ast.strip_positions m2))
    [
      Slimsim_models.Sensor_filter.source ~n:3;
      Slimsim_models.Launcher.source ~variant:`Permanent;
      Slimsim_models.Launcher.source ~variant:`Recoverable;
    ]

(* qcheck: expression print/parse round trip *)
let gen_expr =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun b -> Ast.E_bool b) bool;
              map (fun i -> Ast.E_int i) (int_range 0 1000);
              map (fun x -> Ast.E_real (float_of_int x /. 8.0)) (int_range 0 800);
              map (fun s -> Ast.E_path [ s ]) (oneofl [ "x"; "y"; "foo"; "a1" ]);
              map2 (fun s t -> Ast.E_path [ s; t ]) (oneofl [ "a"; "b" ]) (oneofl [ "p"; "q" ]);
            ]
        in
        if n <= 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun e -> Ast.E_unop (Ast.U_not, e)) (self (n / 2));
              map (fun e -> Ast.E_unop (Ast.U_neg, e)) (self (n / 2));
              map2
                (fun (op, e1) e2 -> Ast.E_binop (op, e1, e2))
                (pair
                   (oneofl
                      Ast.[ B_add; B_sub; B_mul; B_div; B_and; B_or; B_implies; B_eq; B_neq; B_lt; B_le; B_gt; B_ge; B_min; B_max ])
                   (self (n / 2)))
                (self (n / 2));
            ]))

let qcheck_expr_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"expression print/parse roundtrip"
       ~print:(fun e ->
         Pretty.expr_to_string e
         ^ "\n(reparsed: "
         ^ (match Parser.parse_expression (Pretty.expr_to_string e) with
           | Ok e2 -> Pretty.expr_to_string e2
           | Error err -> "ERR " ^ err)
         ^ ")")
       gen_expr
       (fun e ->
         let printed = Pretty.expr_to_string e in
         match Parser.parse_expression printed with
         | Ok e' -> e = e'
         | Error _ -> false))

(* --- sema --- *)

let analyze src =
  match Parser.parse_model src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m -> Sema.analyze m

let expect_sema_error what fragment src =
  match analyze src with
  | Ok _ -> Alcotest.failf "%s: expected a semantic error" what
  | Error errs ->
    let all = Sema.errors_to_string errs in
    if
      not
        (Astring_contains.contains all fragment)
    then
      Alcotest.failf "%s: expected message containing %S, got:\n%s" what fragment all

let test_sema_accepts_models () =
  List.iter
    (fun src ->
      match analyze src with
      | Ok _ -> ()
      | Error errs -> Alcotest.failf "unexpected errors: %s" (Sema.errors_to_string errs))
    [
      Slimsim_models.Gps.source;
      Slimsim_models.Gps.nominal_only;
      Slimsim_models.Sensor_filter.source ~n:2;
      Slimsim_models.Launcher.source ~variant:`Permanent;
      Slimsim_models.Launcher.source ~variant:`Recoverable;
    ]

let wrap_impl body =
  Printf.sprintf
    {|
system S
features
  v: out data port int := 0;
  e: in event port;
end S;

system implementation S.I
%s
end S.I;

root S.I;
|}
    body

let test_sema_rejections () =
  expect_sema_error "unknown root" "is not declared" "system S\nend S;\nroot T.I;";
  expect_sema_error "recursive containment" "recursive"
    {|
system S
end S;
system implementation S.I
subcomponents
  child: system S.I;
end S.I;
root S.I;
|};
  expect_sema_error "two initial modes" "exactly one initial"
    (wrap_impl "modes\n  a: initial mode;\n  b: initial mode;");
  expect_sema_error "unknown mode in transition" "unknown mode"
    (wrap_impl "modes\n  a: initial mode;\ntransitions\n  a -[]-> zz;");
  expect_sema_error "guard type" "must be Boolean"
    (wrap_impl "modes\n  a: initial mode;\ntransitions\n  a -[when v + 1]-> a;");
  expect_sema_error "assign to input port" "input data port"
    {|
system S
features
  i: in data port int := 0;
end S;
system implementation S.I
modes
  a: initial mode;
transitions
  a -[then i := 3]-> a;
end S.I;
root S.I;
|};
  expect_sema_error "rate and internal guard mix" "mixes rate transitions"
    (wrap_impl
       "subcomponents\n  c: data clock;\nmodes\n  a: initial mode;\n  b: mode;\ntransitions\n  a -[rate 1.0]-> b;\n  a -[when c >= 1.0]-> b;");
  expect_sema_error "invariant on markovian mode" "no invariant"
    (wrap_impl
       "subcomponents\n  c: data clock;\nmodes\n  a: initial mode while c <= 2.0;\n  b: mode;\ntransitions\n  a -[rate 1.0]-> b;");
  expect_sema_error "reset on event transition" "internal guarded"
    {|
device D
end D;
device implementation D.I
end D.I;
system S
features
  e: in event port;
end S;
system implementation S.I
subcomponents
  d: device D.I;
modes
  a: initial mode;
transitions
  a -[e then reset d]-> a;
end S.I;
root S.I;
|};
  expect_sema_error "bad connection direction" "direction"
    {|
device D
features
  o: out data port int := 0;
end D;
device implementation D.I
end D.I;
system S
end S;
system implementation S.I
subcomponents
  d1: device D.I;
  d2: device D.I;
connections
  d1.o -> d2.o;
end S.I;
root S.I;
|};
  expect_sema_error "event/data mix" "mixes"
    {|
device D
features
  o: out data port int := 0;
  e: in event port;
end D;
device implementation D.I
end D.I;
system S
end S;
system implementation S.I
subcomponents
  d1: device D.I;
  d2: device D.I;
connections
  d1.o -> d2.e;
end S.I;
root S.I;
|};
  expect_sema_error "flow on input port" "must be an output port"
    {|
system S
features
  i: in data port int := 0;
end S;
system implementation S.I
flows
  i := 3;
end S.I;
root S.I;
|};
  expect_sema_error "flow and assignment conflict" "assigned by a transition"
    (wrap_impl "flows\n  v := 1;\nmodes\n  a: initial mode;\ntransitions\n  a -[then v := 2]-> a;");
  expect_sema_error "error model needs initial" "exactly one initial"
    {|
error model E
states
  a: state;
end E;
system S
end S;
system implementation S.I
end S.I;
root S.I;
|};
  expect_sema_error "within on exponential state" "mixes exponential"
    {|
error model E
states
  a: initial state;
  b: state;
events
  ev: occurrence poisson 1.0;
transitions
  a -[ev]-> b;
  a -[within 1.0 .. 2.0]-> b;
end E;
system S
end S;
system implementation S.I
end S.I;
root S.I;
|};
  expect_sema_error "negative rate" "must be positive"
    {|
error model E
states
  a: initial state;
events
  ev: occurrence poisson -1.0;
end E;
system S
end S;
system implementation S.I
end S.I;
root S.I;
|};
  expect_sema_error "unknown error state in injection" "unknown error state"
    {|
error model E
states
  a: initial state;
end E;
system S
features
  v: out data port bool := true;
end S;
system implementation S.I
end S.I;
extend with_nothing with E
injections
  inject zz: v := false;
end extend;
root S.I;
|}

let test_sema_rejections_more () =
  expect_sema_error "duplicate feature" "duplicate feature"
    "system S\nfeatures\n  a: out data port int := 0;\n  a: in event port;\nend S;\nsystem implementation S.I\nend S.I;\nroot S.I;";
  expect_sema_error "clock port" "cannot be ports"
    "system S\nfeatures\n  c: out data port clock;\nend S;\nsystem implementation S.I\nend S.I;\nroot S.I;";
  expect_sema_error "empty int range" "empty integer range"
    "system S\nfeatures\n  v: out data port int [5, 2] := 5;\nend S;\nsystem implementation S.I\nend S.I;\nroot S.I;";
  expect_sema_error "category mismatch" "category differs"
    "system S\nend S;\ndevice implementation S.I\nend S.I;\nroot S.I;";
  expect_sema_error "unknown subcomponent impl" "unknown implementation"
    (wrap_impl "subcomponents\n  d: device Nope.I;");
  expect_sema_error "activation in unknown mode" "unknown mode"
    {|
device D
end D;
device implementation D.I
end D.I;
system S
end S;
system implementation S.I
subcomponents
  d: device D.I in modes (zz);
modes
  a: initial mode;
end S.I;
root S.I;
|};
  expect_sema_error "derivative of discrete" "not a clock"
    (wrap_impl "subcomponents\n  n: data int := 0;\nmodes\n  a: initial mode der n = 1.0;");
  expect_sema_error "trigger not event port" "not an event port"
    {|
system S
features
  v: out data port int := 0;
end S;
system implementation S.I
modes
  a: initial mode;
transitions
  a -[v]-> a;
end S.I;
root S.I;
|};
  expect_sema_error "assignment type mismatch" "assignment of"
    (wrap_impl "subcomponents\n  n: data int := 0;\nmodes\n  a: initial mode;\ntransitions\n  a -[then n := 1.5]-> a;");
  expect_sema_error "assign bool to int" "assignment of"
    (wrap_impl "subcomponents\n  n: data int := 0;\nmodes\n  a: initial mode;\ntransitions\n  a -[then n := true]-> a;");
  expect_sema_error "within negative" "invalid delay window"
    {|
error model E
states
  a: initial state;
  b: state;
transitions
  a -[within 2.0 .. 1.0]-> b;
end E;
system S
end S;
system implementation S.I
end S.I;
root S.I;
|};
  expect_sema_error "unknown error trigger" "unknown error event"
    {|
error model E
states
  a: initial state;
transitions
  a -[zz]-> a;
end E;
system S
end S;
system implementation S.I
end S.I;
root S.I;
|};
  expect_sema_error "duplicate implementation" "duplicate implementation"
    "system S\nend S;\nsystem implementation S.I\nend S.I;\nsystem implementation S.I\nend S.I;\nroot S.I;";
  expect_sema_error "transitions without modes" "no modes"
    {|
system S
features
  v: out data port int := 0;
end S;
system implementation S.I
transitions
  a -[then v := 1]-> a;
end S.I;
root S.I;
|}

let test_sema_type_inference_details () =
  (* mod on reals, boolean ordering, arithmetic on booleans *)
  expect_sema_error "mod on reals" "requires integers"
    (wrap_impl "subcomponents\n  x: data real := 0.0;\nmodes\n  a: initial mode while x mod 2.0 = 0.0;");
  expect_sema_error "ordering booleans" "ordering a Boolean"
    {|
system S
features
  b: out data port bool := false;
end S;
system implementation S.I
modes
  a: initial mode while b < true;
end S.I;
root S.I;
|};
  expect_sema_error "arith on booleans" "arithmetic on a Boolean"
    {|
system S
features
  b: out data port bool := false;
  v: out data port int := 0;
end S;
system implementation S.I
modes
  a: initial mode;
transitions
  a -[then v := b + 1]-> a;
end S.I;
root S.I;
|}

let load src =
  match Loader.load_string src with
  | Ok l -> l
  | Error e -> Alcotest.failf "load failed: %s" e

(* An injected value is typed in the extended instance's scope against
   its port: a Boolean into an [int] port is an error at the injection,
   an [int] into a [real] port is legal (translation widens it). *)
let injection_model ~port ~value =
  Printf.sprintf
    {|
error model E
states
  ok: initial state;
  bad: state;
events
  fault: occurrence poisson 1.0;
transitions
  ok -[fault]-> bad;
end E;
device D
features
  v: out data port %s := 0;
end D;
device implementation D.I
end D.I;
system S
end S;
system implementation S.I
subcomponents
  d: device D.I;
end S.I;
extend d with E
injections
  inject bad: v := %s;
end extend;
root S.I;
|}
    port value

let test_sema_injection_types () =
  (match analyze (injection_model ~port:"int" ~value:"true") with
  | Ok _ -> Alcotest.fail "a Boolean injected into an int port passed"
  | Error errs ->
    let msgs = List.map (fun (d : Diag.t) -> (d.pos.line, d.msg)) errs in
    Alcotest.(check (list (pair int string)))
      "errors"
      [ (25, "injection into v: value type bool does not fit int") ]
      msgs);
  match analyze (injection_model ~port:"real" ~value:"3") with
  | Error errs -> Alcotest.failf "unexpected errors: %s" (Sema.errors_to_string errs)
  | Ok _ -> ignore (load (injection_model ~port:"real" ~value:"3"))

(* --- instantiation and translation --- *)

let test_instance_tree () =
  let { Loader.tables; _ } = load (Slimsim_models.Sensor_filter.source ~n:3) in
  match Instance.build tables with
  | Error e -> Alcotest.fail e
  | Ok root ->
    Alcotest.(check int) "instance count" 9 (Instance.count root);
    Alcotest.(check bool) "find nested" true
      (Instance.find root [ "sensors"; "s2" ] <> None);
    Alcotest.(check bool) "missing path" true (Instance.find root [ "nope" ] = None)

let test_translate_gps () =
  let { Loader.network = net; _ } = load Slimsim_models.Gps.source in
  (* processes: main, gps, gps#GPSFail *)
  Alcotest.(check int) "three processes" 3 (Slimsim_sta.Network.n_procs net);
  Alcotest.(check bool) "injected view exists" true
    (Slimsim_sta.Network.find_var net "gps.measurement#inj" <> None);
  Alcotest.(check bool) "error timer exists" true
    (Slimsim_sta.Network.find_var net "gps#GPSFail.timer" <> None);
  let err = Option.get (Slimsim_sta.Network.find_proc net "gps#GPSFail") in
  let proc = net.Slimsim_sta.Network.procs.(err) in
  Alcotest.(check int) "four error states" 4 (Array.length proc.Slimsim_sta.Automaton.locations);
  (* the reset event exists and the error automaton participates *)
  let reset_evt =
    Array.to_list net.Slimsim_sta.Network.events
    |> List.exists (fun e -> e = "reset:gps")
  in
  Alcotest.(check bool) "reset event created" true reset_evt

let test_translate_initial_flows () =
  let { Loader.network = net; _ } = load (Slimsim_models.Launcher.source ~variant:`Permanent) in
  let s = Slimsim_sta.State.initial net in
  let v name =
    match Slimsim_sta.Network.find_var net name with
    | Some i -> s.Slimsim_sta.State.vals.(i)
    | None -> Alcotest.failf "missing variable %s" name
  in
  (* the gyros hold nav up at t = 0, commands flow through the votes *)
  Alcotest.(check bool) "nav true initially" true
    (Slimsim_sta.Value.equal (v "navbus.nav") (Slimsim_sta.Value.Bool true));
  Alcotest.(check bool) "thrusters live initially" true
    (Slimsim_sta.Value.equal (v "thrusters.ctl") (Slimsim_sta.Value.Bool true));
  Alcotest.(check bool) "triplex vote true" true
    (Slimsim_sta.Value.equal (v "tri1.cmd") (Slimsim_sta.Value.Bool true))

let test_translate_rejects_bad_extension () =
  let src =
    {|
error model E
states
  a: initial state;
end E;
system S
end S;
system implementation S.I
end S.I;
extend nothere with E
end extend;
root S.I;
|}
  in
  match Loader.load_string src with
  | Error e ->
    Alcotest.(check bool) "mentions unknown instance" true
      (Astring_contains.contains e "unknown instance")
  | Ok _ -> Alcotest.fail "expected a translation error"

let test_property_resolution () =
  let { Loader.network = net; _ } = load Slimsim_models.Gps.source in
  (match Loader.parse_goal net "gps in mode active and not gps.measurement" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* error automaton states are reachable through the instance path *)
  (match Loader.parse_goal net "gps in mode transient" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown variable rejected" true
    (Result.is_error (Loader.parse_goal net "gps.nonsense"));
  Alcotest.(check bool) "unknown mode rejected" true
    (Result.is_error (Loader.parse_goal net "gps in mode nonsense"))

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser mode atoms" `Quick test_parser_mode_atoms;
    Alcotest.test_case "parser rejects" `Quick test_parser_errors;
    Alcotest.test_case "parse gps model" `Quick test_parse_gps_model;
    Alcotest.test_case "parse transition forms" `Quick test_parse_transition_forms;
    Alcotest.test_case "parse model rejects" `Quick test_parse_rejects;
    Alcotest.test_case "roundtrip gps" `Quick test_roundtrip_gps;
    Alcotest.test_case "roundtrip generated models" `Quick test_roundtrip_generated;
    qcheck_expr_roundtrip;
    Alcotest.test_case "sema accepts shipped models" `Quick test_sema_accepts_models;
    Alcotest.test_case "sema rejections" `Quick test_sema_rejections;
    Alcotest.test_case "sema rejections (more)" `Quick test_sema_rejections_more;
    Alcotest.test_case "sema type inference" `Quick test_sema_type_inference_details;
    Alcotest.test_case "sema types injection values" `Quick test_sema_injection_types;
    Alcotest.test_case "instance tree" `Quick test_instance_tree;
    Alcotest.test_case "translate gps" `Quick test_translate_gps;
    Alcotest.test_case "translate initial flows" `Quick test_translate_initial_flows;
    Alcotest.test_case "translate rejects bad extension" `Quick test_translate_rejects_bad_extension;
    Alcotest.test_case "property resolution" `Quick test_property_resolution;
  ]
