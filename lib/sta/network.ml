type var_kind = Discrete | Clock | Continuous

type var_info = {
  var_name : string;
  kind : var_kind;
  init : Value.t;
  owner : int option;
}

type flow = { target : int; expr : Expr.t }

type reactivation = Restart | Resume

type proc_meta = {
  active_when : Expr.t;
  reactivation : reactivation;
  owned_vars : int list;
}

type t = {
  procs : Automaton.t array;
  meta : proc_meta array;
  vars : var_info array;
  events : string array;
  flows : flow array;
  participants : int list array;
}

exception Invalid_network of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_network s)) fmt

let default_meta =
  { active_when = Expr.true_; reactivation = Resume; owned_vars = [] }

(* Order flows so that every flow only reads variables that are either
   not flow targets or targets of earlier flows (Kahn's algorithm). *)
let topo_sort_flows n_vars flows =
  let by_target = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if Hashtbl.mem by_target f.target then
        invalid "variable %d is the target of two data flows" f.target;
      Hashtbl.add by_target f.target f)
    flows;
  ignore n_vars;
  let sorted = ref [] in
  let state = Hashtbl.create 16 in
  (* state: `Visiting | `Done *)
  let rec visit target =
    match Hashtbl.find_opt state target with
    | Some `Done -> ()
    | Some `Visiting -> invalid "data flows form a cycle through variable %d" target
    | None -> (
      match Hashtbl.find_opt by_target target with
      | None -> ()
      | Some f ->
        Hashtbl.replace state target `Visiting;
        List.iter visit (Expr.free_vars f.expr);
        Hashtbl.replace state target `Done;
        sorted := f :: !sorted)
  in
  List.iter (fun f -> visit f.target) flows;
  Array.of_list (List.rev !sorted)

let make ~procs ~vars ~events ~flows =
  let n_vars = Array.length vars in
  let check_var ctx v =
    if v < 0 || v >= n_vars then invalid "%s references variable %d out of range" ctx v
  in
  let check_expr ctx e = List.iter (check_var ctx) (Expr.free_vars e) in
  (* The declared type of a variable is that of its initial value: a
     clock or a continuous variable is a real, an if-then-else has
     branches of one type, and every update and flow writes its
     target's type. *)
  let ty v = Value.type_of vars.(v).init in
  let typed = Expr.static_type (fun v -> Some (ty v)) in
  let tname = Value.type_name in
  let a t = (if t = Value.Tint then "an " else "a ") ^ tname t in
  Array.iter
    (fun info ->
      match info.kind, Value.type_of info.init with
      | Discrete, _ | (Clock | Continuous), Value.Treal -> ()
      | (Clock | Continuous), t ->
        invalid "%s variable %s has type %s; it must be real"
          (if info.kind = Clock then "clock" else "continuous")
          info.var_name (tname t))
    vars;
  let rec check_ite ctx (e : Expr.t) =
    match e with
    | Const _ | Var _ | Loc _ -> ()
    | Unop (_, e1) -> check_ite ctx e1
    | Binop (_, e1, e2) ->
      check_ite ctx e1;
      check_ite ctx e2
    | Ite (c, e1, e2) -> (
      check_ite ctx c;
      check_ite ctx e1;
      check_ite ctx e2;
      match typed e1, typed e2 with
      | Some t1, Some t2 when t1 <> t2 ->
        invalid "%s: an if-then-else has %s and %s branches" ctx (tname t1) (tname t2)
      | _ -> ())
  in
  let check ctx e =
    check_expr ctx e;
    check_ite ctx e
  in
  let check_write ctx v e =
    check_var ctx v;
    check_expr ctx e;
    let name = vars.(v).var_name in
    check_ite (Printf.sprintf "%s, writing %s" ctx name) e;
    match typed e with
    | Some t when t = ty v -> ()
    | Some t -> invalid "%s: %s variable %s is written %s" ctx (tname (ty v)) name (a t)
    | None -> invalid "%s: %s variable %s is written an ill-typed expression" ctx (tname (ty v)) name
  in
  List.iter
    (fun ((p : Automaton.t), (meta : proc_meta)) ->
      let open Automaton in
      check p.proc_name meta.active_when;
      Array.iter
        (fun l ->
          check p.proc_name l.invariant;
          List.iter
            (fun (v, _) ->
              check_var p.proc_name v;
              if ty v <> Value.Treal then
                invalid "%s: derivative of %s variable %s; only a real has one" p.proc_name
                  (tname (ty v)) vars.(v).var_name)
            l.derivs)
        p.locations;
      Array.iter
        (fun tr ->
          (match tr.guard with Guard g -> check p.proc_name g | Rate _ -> ());
          List.iter (fun (v, e) -> check_write p.proc_name v e) tr.updates;
          match tr.label with
          | Event e ->
            if e < 0 || e >= Array.length events then
              invalid "%s references event %d out of range" p.proc_name e
          | Tau -> ())
        p.transitions)
    procs;
  List.iter (fun f -> check_write "flow" f.target f.expr) flows;
  let flows = topo_sort_flows n_vars flows in
  let procs_arr = Array.of_list (List.map fst procs) in
  let meta = Array.of_list (List.map snd procs) in
  let participants =
    Array.init (Array.length events) (fun e ->
        Array.to_list procs_arr
        |> List.mapi (fun i p -> (i, p))
        |> List.filter_map (fun (i, p) ->
               if List.mem e p.Automaton.alphabet then Some i else None))
  in
  { procs = procs_arr; meta; vars; events; flows; participants }

let var_type t v = Value.type_of t.vars.(v).init
let n_procs t = Array.length t.procs
let n_vars t = Array.length t.vars

let find_var t name =
  let rec go i =
    if i >= Array.length t.vars then None
    else if t.vars.(i).var_name = name then Some i
    else go (i + 1)
  in
  go 0

let find_proc t name =
  let rec go i =
    if i >= Array.length t.procs then None
    else if t.procs.(i).Automaton.proc_name = name then Some i
    else go (i + 1)
  in
  go 0

let find_loc t ~proc name = Automaton.find_loc t.procs.(proc) name

let var_name t v = t.vars.(v).var_name
let event_name t e = t.events.(e)
let proc_name t p = t.procs.(p).Automaton.proc_name
let loc_name t ~proc l = t.procs.(proc).Automaton.locations.(l).Automaton.loc_name

let n_events t = Array.length t.events
let event_participants t e = t.participants.(e)

let pp_summary ppf t =
  Fmt.pf ppf "network: %d processes, %d variables, %d events, %d flows"
    (Array.length t.procs) (Array.length t.vars) (Array.length t.events)
    (Array.length t.flows)
