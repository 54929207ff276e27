module E = Slimsim_sta.Expr
module A = Slimsim_sta.Automaton
module N = Slimsim_sta.Network
module V = Slimsim_sta.Value

exception Translate_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Translate_error s)) fmt

let join path = match path with [] -> "main" | _ -> String.concat "." path

(* ------------------------------------------------------------------ *)
(* Union-find over string keys, used for event-connection groups and   *)
(* error-propagation groups.                                           *)

module Uf = struct
  type t = (string, string) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let rec find uf k =
    match Hashtbl.find_opt uf k with
    | None | Some "" -> k
    | Some p ->
      let r = find uf p in
      if r <> p then Hashtbl.replace uf k r;
      r

  let union uf a b =
    let ra = find uf a and rb = find uf b in
    if ra <> rb then Hashtbl.replace uf ra rb

  let touch uf k = if not (Hashtbl.mem uf k) then Hashtbl.replace uf k ""
end

(* ------------------------------------------------------------------ *)

type builder = {
  tables : Sema.tables;
  root : Instance.t;
  (* variables *)
  mutable vars_rev : N.var_info list;
  mutable n_vars : int;
  var_idx : (string, int) Hashtbl.t;
  var_ty : (int, V.ty) Hashtbl.t;  (* declared types, as the initial values' *)
  (* events *)
  mutable events_rev : string list;
  mutable n_events : int;
  event_idx : (string, int) Hashtbl.t;
  (* which output ports are injected: full key -> unit *)
  injected : (string, unit) Hashtbl.t;
  (* extensions grouped by target instance path key *)
  ext_of : (string, Ast.extension * Ast.error_model) Hashtbl.t;
  (* union-find of event port keys *)
  port_uf : Uf.t;
  port_dir : (string, Ast.port_dir) Hashtbl.t;
  (* instance paths that are reset targets -> event key *)
  reset_targets : (string, unit) Hashtbl.t;
  (* propagation union-find: key "prop!<path>#<em>!<name>" *)
  prop_uf : Uf.t;
  prop_dir : (string, Ast.port_dir) Hashtbl.t;
  (* processes *)
  mutable procs_rev : (A.t * N.proc_meta) list;
  mutable n_procs : int;
  proc_idx : (string, int) Hashtbl.t;
  mutable flows : N.flow list;
}

let add_var b name kind init =
  if Hashtbl.mem b.var_idx name then fail "duplicate variable %s" name;
  let i = b.n_vars in
  Hashtbl.add b.var_idx name i;
  Hashtbl.add b.var_ty i (V.type_of init);
  b.vars_rev <- { N.var_name = name; kind; init; owner = None } :: b.vars_rev;
  b.n_vars <- b.n_vars + 1;
  i

let var b name =
  match Hashtbl.find_opt b.var_idx name with
  | Some i -> i
  | None -> fail "internal: unknown variable %s" name

let add_event b name =
  match Hashtbl.find_opt b.event_idx name with
  | Some i -> i
  | None ->
    let i = b.n_events in
    Hashtbl.add b.event_idx name i;
    b.events_rev <- name :: b.events_rev;
    b.n_events <- b.n_events + 1;
    i

(* ------------------------------------------------------------------ *)
(* Constant evaluation for initializers.                                *)

let rec const_eval (tables : Sema.tables) (e : Ast.expr) : V.t =
  match e with
  | Ast.E_bool b -> V.Bool b
  | Ast.E_int n -> V.Int n
  | Ast.E_real x -> V.Real x
  | Ast.E_unop (Ast.U_neg, e1) -> V.neg (const_eval tables e1)
  | Ast.E_unop (Ast.U_not, e1) ->
    V.Bool (not (V.as_bool (const_eval tables e1)))
  | Ast.E_binop (op, e1, e2) -> (
    let v1 = const_eval tables e1 and v2 = const_eval tables e2 in
    match op with
    | Ast.B_add -> V.add v1 v2
    | Ast.B_sub -> V.sub v1 v2
    | Ast.B_mul -> V.mul v1 v2
    | Ast.B_div -> V.div v1 v2
    | Ast.B_mod -> V.modulo v1 v2
    | Ast.B_min -> V.min_v v1 v2
    | Ast.B_max -> V.max_v v1 v2
    | _ -> fail "initializer must be a constant numeric expression")
  | Ast.E_path [ x ] when Sema.enum_literal tables x <> None -> (
    match Sema.enum_literal tables x with
    | Some (_, code) -> V.Int code
    | None -> assert false)
  | Ast.E_path p -> fail "initializer references %s (must be constant)" (Ast.path_to_string p)
  | Ast.E_in_mode _ -> fail "initializer cannot use 'in mode'"

let default_init (ty : Ast.ty) =
  match ty with
  | Ast.T_bool -> V.Bool false
  | Ast.T_int -> V.Int 0
  | Ast.T_int_range (a, _) -> V.Int a
  | Ast.T_real -> V.Real 0.0
  | Ast.T_clock | Ast.T_continuous -> V.Real 0.0
  | Ast.T_enum _ -> V.Int 0

(* A value written to a real, clock or continuous variable is a real:
   an [int] becomes one. *)
let widen_value (ty : Ast.ty) (v : V.t) =
  match ty, v with
  | (Ast.T_real | Ast.T_clock | Ast.T_continuous), V.Int n -> V.Real (float_of_int n)
  | _ -> v

let kind_of_ty = function
  | Ast.T_clock -> N.Clock
  | Ast.T_continuous -> N.Continuous
  | Ast.T_bool | Ast.T_int | Ast.T_int_range _ | Ast.T_real | Ast.T_enum _ ->
    N.Discrete

(* ------------------------------------------------------------------ *)
(* Name resolution within an instance.                                  *)

let key_in (inst : Instance.t) p = join (inst.path @ p)

(* A read of [s.x] from the parent sees the injected (observed) value of
   an injected output port; reads of the component's own elements see the
   nominal value. *)
let read_var b inst (p : Ast.name_path) =
  match p with
  | [ _ ] -> var b (key_in inst p)
  | _ ->
    let k = key_in inst p in
    if Hashtbl.mem b.injected k then var b (k ^ "#inj") else var b k

let write_var b inst (p : Ast.name_path) = var b (key_in inst p)

(* [e] as written to variable [v]: an [int] expression written to a real
   becomes [e + 0.0], which [Value] computes as [float_of_int e] exactly,
   and an [int] constant the real it stands for. *)
let widen b v (e : E.t) =
  if Hashtbl.find b.var_ty v <> V.Treal then e
  else
    match e, E.static_type (Hashtbl.find_opt b.var_ty) e with
    | E.Const (V.Int n), _ -> E.real (float_of_int n)
    | _, Some V.Tint -> E.Binop (E.Add, e, E.real 0.0)
    | _ -> e

let rec tr_expr b inst (e : Ast.expr) : E.t =
  match e with
  | Ast.E_bool v -> E.bool v
  | Ast.E_int n -> E.int n
  | Ast.E_real x -> E.real x
  | Ast.E_path ([ x ] as p) -> (
    (* variables shadow enumeration literals *)
    match Hashtbl.find_opt b.var_idx (key_in inst p) with
    | Some _ -> E.var (read_var b inst p)
    | None -> (
      match Sema.enum_literal b.tables x with
      | Some (_, code) -> E.int code
      | None -> E.var (read_var b inst p)))
  | Ast.E_path p -> E.var (read_var b inst p)
  | Ast.E_in_mode _ -> fail "'in mode' is only allowed in properties"
  | Ast.E_unop (Ast.U_neg, e1) -> E.Unop (E.Neg, tr_expr b inst e1)
  | Ast.E_unop (Ast.U_not, e1) -> E.not_ (tr_expr b inst e1)
  | Ast.E_binop (op, e1, e2) ->
    let t1 = tr_expr b inst e1 and t2 = tr_expr b inst e2 in
    let bop =
      match op with
      | Ast.B_add -> E.Add | Ast.B_sub -> E.Sub | Ast.B_mul -> E.Mul
      | Ast.B_div -> E.Div | Ast.B_mod -> E.Mod | Ast.B_and -> E.And
      | Ast.B_or -> E.Or | Ast.B_implies -> E.Implies | Ast.B_eq -> E.Eq
      | Ast.B_neq -> E.Neq | Ast.B_lt -> E.Lt | Ast.B_le -> E.Le
      | Ast.B_gt -> E.Gt | Ast.B_ge -> E.Ge | Ast.B_min -> E.Min
      | Ast.B_max -> E.Max
    in
    E.Binop (bop, t1, t2)

(* ------------------------------------------------------------------ *)
(* Phase 1: declare variables.                                          *)

let declare_vars b =
  Instance.iter
    (fun inst ->
      List.iter
        (function
          | Ast.Sub_data d ->
            let init =
              match d.sd_init with
              | None -> default_init d.sd_ty
              | Some e -> widen_value d.sd_ty (const_eval b.tables e)
            in
            ignore (add_var b (key_in inst [ d.sd_name ]) (kind_of_ty d.sd_ty) init)
          | Ast.Sub_comp _ -> ())
        inst.ci.ci_subcomps;
      List.iter
        (fun (f : Ast.feature) ->
          match f.f_kind with
          | Ast.P_event -> ()
          | Ast.P_data (ty, default) ->
            let init =
              match default with
              | None -> default_init ty
              | Some e -> widen_value ty (const_eval b.tables e)
            in
            let k = key_in inst [ f.f_name ] in
            ignore (add_var b k N.Discrete init);
            if Hashtbl.mem b.injected k then
              ignore (add_var b (k ^ "#inj") N.Discrete init))
        inst.ct.ct_features)
    b.root;
  (* error-model implicit clocks *)
  Hashtbl.iter
    (fun key ((_ext : Ast.extension), (em : Ast.error_model)) ->
      let has_within =
        List.exists
          (fun t ->
            match t.Ast.et_trigger with Ast.Etrig_within _ -> true | _ -> false)
          em.em_transitions
      in
      if has_within then
        ignore
          (add_var b
             (key ^ "#" ^ em.em_name ^ ".timer")
             N.Clock (V.Real 0.0)))
    b.ext_of

(* ------------------------------------------------------------------ *)
(* Phase 2: event groups.                                               *)

let port_key inst p = key_in inst p

let record_event_endpoints b =
  Instance.iter
    (fun inst ->
      List.iter
        (fun (cn : Ast.connection) ->
          let feature_of p =
            match p with
            | [ x ] -> Sema.find_feature inst.ct x
            | [ s; x ] -> (
              match List.assoc_opt s inst.subs with
              | None -> None
              | Some sub -> Sema.find_feature sub.Instance.ct x)
            | _ -> None
          in
          match feature_of cn.cn_src, feature_of cn.cn_dst with
          | Some { f_kind = Ast.P_event; f_dir = d1; _ },
            Some { f_kind = Ast.P_event; f_dir = d2; _ } ->
            let ks = port_key inst cn.cn_src and kd = port_key inst cn.cn_dst in
            Uf.touch b.port_uf ks;
            Uf.touch b.port_uf kd;
            (* Record the *boundary role*: a sub's out port and the own
               in port both act as sources of the group. *)
            Hashtbl.replace b.port_dir ks d1;
            Hashtbl.replace b.port_dir kd d2;
            Uf.union b.port_uf ks kd
          | _ -> () (* data connections become flows *))
        inst.ci.ci_connections;
      (* every event port mentioned by a transition participates, even
         unconnected ones *)
      List.iter
        (fun (t : Ast.transition) ->
          match t.t_trigger with
          | Ast.Trig_event p ->
            let k = port_key inst p in
            Uf.touch b.port_uf k;
            (match Sema.find_feature inst.ct (List.hd p) with
            | Some f -> Hashtbl.replace b.port_dir k f.f_dir
            | None -> ())
          | Ast.Trig_none | Ast.Trig_rate _ -> ())
        inst.ci.ci_transitions)
    b.root

(* An event group is "live" if some member is an output port: a lone
   input port can never be triggered and its transitions are dead. *)
let group_live b key =
  let root = Uf.find b.port_uf key in
  Hashtbl.fold
    (fun k _ acc ->
      acc
      || Uf.find b.port_uf k = root
         && Hashtbl.find_opt b.port_dir k = Some Ast.Out)
    b.port_uf false

let event_of_port b inst p =
  let k = port_key inst p in
  let root = Uf.find b.port_uf k in
  (add_event b ("evt:" ^ root), group_live b k)

(* ------------------------------------------------------------------ *)
(* Propagation groups: out propagations synchronize with equally named  *)
(* in propagations of error models on sibling or parent/child           *)
(* instances (§II-D "model extension automatically adds error           *)
(* propagation connections").                                           *)

let prop_key path em_name prop = "prop!" ^ join path ^ "#" ^ em_name ^ "!" ^ prop

let related p1 p2 =
  let parent p = match List.rev p with [] -> None | _ :: t -> Some (List.rev t) in
  (p1 <> p2 && parent p1 = parent p2)
  || parent p1 = Some p2
  || parent p2 = Some p1

let record_propagations b =
  let exts =
    Hashtbl.fold
      (fun key (ext, em) acc -> (key, ext, em) :: acc)
      b.ext_of []
  in
  let path_of_key k = if k = "main" then [] else String.split_on_char '.' k in
  List.iter
    (fun (k1, (_ : Ast.extension), em1) ->
      List.iter
        (fun (p : Ast.error_propagation) ->
          let key = prop_key (path_of_key k1) em1.Ast.em_name p.ep_name in
          Uf.touch b.prop_uf key;
          Hashtbl.replace b.prop_dir key p.ep_dir)
        em1.Ast.em_propagations)
    exts;
  List.iter
    (fun (k1, _, em1) ->
      List.iter
        (fun (k2, _, em2) ->
          if (k1, em1.Ast.em_name) <> (k2, em2.Ast.em_name) then
            List.iter
              (fun (p1 : Ast.error_propagation) ->
                List.iter
                  (fun (p2 : Ast.error_propagation) ->
                    if
                      p1.ep_name = p2.ep_name && p1.ep_dir = Ast.Out
                      && p2.ep_dir = Ast.In
                      && related (path_of_key k1) (path_of_key k2)
                    then
                      Uf.union b.prop_uf
                        (prop_key (path_of_key k1) em1.Ast.em_name p1.ep_name)
                        (prop_key (path_of_key k2) em2.Ast.em_name p2.ep_name))
                  em2.Ast.em_propagations)
              em1.Ast.em_propagations)
        exts)
    exts

let prop_group_live b key =
  let root = Uf.find b.prop_uf key in
  Hashtbl.fold
    (fun k _ acc ->
      acc
      || Uf.find b.prop_uf k = root && Hashtbl.find_opt b.prop_dir k = Some Ast.Out)
    b.prop_uf false

(* ------------------------------------------------------------------ *)
(* Reset machinery.                                                     *)

let record_reset_targets b =
  Instance.iter
    (fun inst ->
      List.iter
        (fun (t : Ast.transition) ->
          List.iter
            (function
              | Ast.Eff_reset [ s ] ->
                Hashtbl.replace b.reset_targets (join (inst.path @ [ s ])) ()
              | Ast.Eff_reset p ->
                fail "reset target %s must be a direct subcomponent"
                  (Ast.path_to_string p)
              | Ast.Eff_assign _ -> ())
            t.t_effects)
        inst.ci.ci_transitions)
    b.root

let reset_event b path_key = add_event b ("reset:" ^ path_key)

(* Reset events whose target is this instance or an ancestor of it. *)
let resets_covering b (inst : Instance.t) =
  let rec prefixes acc = function
    | [] -> [ acc ]
    | x :: rest -> acc :: prefixes (acc @ [ x ]) rest
  in
  prefixes [] inst.path
  |> List.filter_map (fun p ->
         let k = join p in
         if Hashtbl.mem b.reset_targets k then Some (reset_event b k) else None)

(* ------------------------------------------------------------------ *)
(* Phase 3: processes.                                                  *)

let owned_vars_of b inst =
  let acc = ref [] in
  List.iter
    (function
      | Ast.Sub_data d -> acc := var b (key_in inst [ d.sd_name ]) :: !acc
      | Ast.Sub_comp _ -> ())
    inst.Instance.ci.ci_subcomps;
  List.iter
    (fun (f : Ast.feature) ->
      match f.f_kind with
      | Ast.P_data _ -> acc := var b (key_in inst [ f.f_name ]) :: !acc
      | Ast.P_event -> ())
    inst.Instance.ct.ct_features;
  List.rev !acc

(* Activation condition of an instance: conjunction over the ancestor
   chain of "parent is in one of the activating modes". *)
let rec active_expr b (ancestors : (Instance.t * string) list) (inst : Instance.t) =
  ignore b;
  match ancestors with
  | [] -> E.true_
  | (parent, _) :: rest ->
    let parent_cond = active_expr b rest parent in
    if inst.in_modes = [] then parent_cond
    else
      let parent_proc =
        match Hashtbl.find_opt b.proc_idx (join parent.path) with
        | Some p -> p
        | None ->
          fail "subcomponent %s is mode-dependent but %s has no modes"
            (join inst.path) (join parent.path)
      in
      let disj =
        List.fold_left
          (fun acc m ->
            match Instance.find parent [] with
            | _ ->
              let loc =
                match
                  List.mapi (fun i md -> (i, md)) parent.ci.ci_modes
                  |> List.find_opt (fun (_, md) -> md.Ast.m_name = m)
                with
                | Some (i, _) -> i
                | None -> fail "unknown activation mode %s" m
              in
              E.or_ acc (E.Loc (parent_proc, loc)))
          E.false_ inst.in_modes
      in
      E.and_ parent_cond disj

let mode_index ci name =
  match
    List.mapi (fun i m -> (i, m)) ci.Ast.ci_modes
    |> List.find_opt (fun (_, m) -> m.Ast.m_name = name)
  with
  | Some (i, _) -> i
  | None -> fail "unknown mode %s" name

let build_nominal_proc b (inst : Instance.t) =
  let ci = inst.ci in
  let name = join inst.path in
  let locations =
    Array.of_list
      (List.map
         (fun (m : Ast.mode) ->
           {
             A.loc_name = m.m_name;
             invariant =
               (match m.m_invariant with
               | None -> E.true_
               | Some e -> tr_expr b inst e);
             derivs =
               List.map (fun (v, r) -> (var b (key_in inst [ v ]), r)) m.m_derivs;
           })
         ci.ci_modes)
  in
  let initial =
    match List.find_opt (fun m -> m.Ast.m_initial) ci.ci_modes with
    | Some m -> mode_index ci m.m_name
    | None -> 0
  in
  let transitions = ref [] in
  List.iter
    (fun (t : Ast.transition) ->
      let src = mode_index ci t.t_src and dst = mode_index ci t.t_dst in
      let updates =
        List.filter_map
          (function
            | Ast.Eff_assign (p, e) ->
              let v = write_var b inst p in
              Some (v, widen b v (tr_expr b inst e))
            | Ast.Eff_reset _ -> None)
          t.t_effects
      in
      let resets =
        List.filter_map
          (function
            | Ast.Eff_reset [ s ] -> Some (join (inst.path @ [ s ]))
            | Ast.Eff_reset _ | Ast.Eff_assign _ -> None)
          t.t_effects
      in
      let guard_expr =
        match t.t_guard with None -> E.true_ | Some e -> tr_expr b inst e
      in
      let label, guard =
        match t.t_trigger, resets with
        | Ast.Trig_rate r, [] -> (A.Tau, A.Rate r)
        | Ast.Trig_rate _, _ :: _ ->
          fail "%s: a rate transition cannot carry a reset effect" name
        | Ast.Trig_none, [] -> (A.Tau, A.Guard guard_expr)
        | Ast.Trig_none, [ rk ] -> (A.Event (reset_event b rk), A.Guard guard_expr)
        | Ast.Trig_none, _ :: _ :: _ ->
          fail "%s: at most one reset effect per transition" name
        | Ast.Trig_event p, [] ->
          let ev, live = event_of_port b inst p in
          (A.Event ev, A.Guard (if live then guard_expr else E.false_))
        | Ast.Trig_event _, _ :: _ ->
          fail "%s: reset effects are not allowed on event transitions" name
      in
      transitions :=
        { A.src; dst; label; guard; updates; weight = 1.0 } :: !transitions)
    ci.ci_transitions;
  (* Woven reset receptions: for every reset event covering this
     instance, return to the initial mode from anywhere and restore the
     owned variables. *)
  let owned = owned_vars_of b inst in
  let reset_updates =
    List.map
      (fun v ->
        let info = List.nth (List.rev b.vars_rev) v in
        (v, E.Const info.N.init))
      owned
  in
  List.iter
    (fun ev ->
      Array.iteri
        (fun l _ ->
          transitions :=
            {
              A.src = l;
              dst = initial;
              label = A.Event ev;
              guard = A.Guard E.true_;
              updates = reset_updates;
              weight = 1.0;
            }
            :: !transitions)
        locations)
    (resets_covering b inst);
  A.make ~name ~locations ~initial ~transitions:(List.rev !transitions)

let build_error_proc b (inst : Instance.t) (em : Ast.error_model) =
  let name = join inst.path ^ "#" ^ em.em_name in
  let timer_key = join inst.path ^ "#" ^ em.em_name ^ ".timer" in
  let timer = Hashtbl.find_opt b.var_idx timer_key in
  let state_index s =
    match
      List.mapi (fun i st -> (i, st)) em.em_states
      |> List.find_opt (fun (_, st) -> st.Ast.es_name = s)
    with
    | Some (i, _) -> i
    | None -> fail "unknown error state %s" s
  in
  (* Invariants: a state with 'within [a,b]' exits must leave by the
     largest b (time upper bound for the non-deterministic window). *)
  let within_sup st =
    List.fold_left
      (fun acc (t : Ast.error_transition) ->
        if t.et_src = st then
          match t.et_trigger with
          | Ast.Etrig_within (_, _, hi) -> Float.max acc hi
          | _ -> acc
        else acc)
      neg_infinity em.em_transitions
  in
  let locations =
    Array.of_list
      (List.map
         (fun (st : Ast.error_state) ->
           let sup = within_sup st.es_name in
           let invariant =
             if sup > neg_infinity then
               match timer with
               | Some tv -> E.Binop (E.Le, E.var tv, E.real sup)
               | None -> E.true_
             else E.true_
           in
           { A.loc_name = st.es_name; invariant; derivs = [] })
         em.em_states)
  in
  let initial =
    match List.find_opt (fun s -> s.Ast.es_initial) em.em_states with
    | Some s -> state_index s.es_name
    | None -> 0
  in
  let timer_reset = match timer with Some tv -> [ (tv, E.real 0.0) ] | None -> [] in
  let transitions = ref [] in
  let covering = resets_covering b inst in
  let explicit_activation = Hashtbl.create 8 in
  List.iter
    (fun (t : Ast.error_transition) ->
      let src = state_index t.et_src and dst = state_index t.et_dst in
      let add label guard =
        transitions :=
          { A.src; dst; label; guard; updates = timer_reset; weight = 1.0 }
          :: !transitions
      in
      match t.et_trigger with
      | Ast.Etrig_event n -> (
        match List.find_opt (fun e -> e.Ast.ee_name = n) em.em_events with
        | Some e -> add A.Tau (A.Rate e.ee_rate)
        | None ->
          (* a propagation *)
          let key = prop_key inst.path em.em_name n in
          let live = prop_group_live b key in
          let ev = add_event b ("prop:" ^ Uf.find b.prop_uf key) in
          add (A.Event ev) (A.Guard (if live then E.true_ else E.false_)))
      | Ast.Etrig_within (_, lo, hi) -> (
        match timer with
        | None -> fail "internal: missing timer for %s" name
        | Some tv ->
          add A.Tau
            (A.Guard
               (E.and_
                  (E.Binop (E.Ge, E.var tv, E.real lo))
                  (E.Binop (E.Le, E.var tv, E.real hi)))))
      | Ast.Etrig_activation ->
        Hashtbl.replace explicit_activation src ();
        if covering = [] then
          (* Nothing ever resets this component: the recovery is dead. *)
          add A.Tau (A.Guard E.false_)
        else List.iter (fun ev -> add (A.Event ev) (A.Guard E.true_)) covering)
    em.em_transitions;
  (* Self-loop weaving: states without an explicit @activation transition
     must not block the host's reset synchronization. *)
  List.iter
    (fun ev ->
      Array.iteri
        (fun l _ ->
          if not (Hashtbl.mem explicit_activation l) then
            transitions :=
              {
                A.src = l;
                dst = l;
                label = A.Event ev;
                guard = A.Guard E.true_;
                updates = timer_reset;
                weight = 1.0;
              }
              :: !transitions)
        locations)
    covering;
  A.make ~name ~locations ~initial ~transitions:(List.rev !transitions)

(* ------------------------------------------------------------------ *)
(* Phase 4: flows.                                                      *)

let record_flows b =
  Instance.iter
    (fun inst ->
      (* flow declarations: computed output ports *)
      List.iter
        (fun (fl : Ast.flow) ->
          let target = write_var b inst [ fl.fl_target ] in
          b.flows <-
            { N.target; expr = widen b target (tr_expr b inst fl.fl_expr) } :: b.flows)
        inst.ci.ci_flows;
      List.iter
        (fun (cn : Ast.connection) ->
          let feature_of p =
            match p with
            | [ x ] -> Sema.find_feature inst.ct x
            | [ s; x ] -> (
              match List.assoc_opt s inst.subs with
              | None -> None
              | Some sub -> Sema.find_feature sub.Instance.ct x)
            | _ -> None
          in
          match feature_of cn.cn_src, feature_of cn.cn_dst with
          | Some { f_kind = Ast.P_data _; _ }, Some { f_kind = Ast.P_data _; _ } ->
            let src = read_var b inst cn.cn_src in
            let dst = write_var b inst cn.cn_dst in
            b.flows <- { N.target = dst; expr = widen b dst (E.var src) } :: b.flows
          | _ -> ())
        inst.ci.ci_connections)
    b.root

(* Injection flows: the observed value of an injected output port is a
   case split over the error automaton's state (model extension). *)
let record_injection_flows b =
  Hashtbl.iter
    (fun key ((ext : Ast.extension), (em : Ast.error_model)) ->
      let inst =
        match
          Instance.find b.root
            (if key = "main" then [] else String.split_on_char '.' key)
        with
        | Some i -> i
        | None -> fail "extension targets unknown instance %s" key
      in
      let err_proc =
        match Hashtbl.find_opt b.proc_idx (key ^ "#" ^ em.em_name) with
        | Some p -> p
        | None -> fail "internal: missing error process for %s" key
      in
      let state_index s =
        match
          List.mapi (fun i st -> (i, st)) em.em_states
          |> List.find_opt (fun (_, st) -> st.Ast.es_name = s)
        with
        | Some (i, _) -> i
        | None -> fail "injection for unknown error state %s" s
      in
      (* group injections per target port *)
      let by_port = Hashtbl.create 4 in
      List.iter
        (fun (inj : Ast.injection) ->
          let pk = key_in inst inj.inj_target in
          let existing =
            match Hashtbl.find_opt by_port pk with Some l -> l | None -> []
          in
          Hashtbl.replace by_port pk (inj :: existing))
        ext.ex_injections;
      Hashtbl.iter
        (fun pk injs ->
          let nominal = var b pk in
          let observed = var b (pk ^ "#inj") in
          let expr =
            List.fold_left
              (fun acc (inj : Ast.injection) ->
                E.Ite
                  ( E.Loc (err_proc, state_index inj.inj_state),
                    widen b observed (tr_expr b inst inj.inj_value),
                    acc ))
              (E.var nominal) injs
          in
          b.flows <- { N.target = observed; expr } :: b.flows)
        by_port)
    b.ext_of

(* ------------------------------------------------------------------ *)

let translate (tables : Sema.tables) =
  match Instance.build tables with
  | Error e -> Error e
  | Ok root -> (
    try
      let b =
        {
          tables;
          root;
          vars_rev = [];
          n_vars = 0;
          var_idx = Hashtbl.create 64;
          var_ty = Hashtbl.create 64;
          events_rev = [];
          n_events = 0;
          event_idx = Hashtbl.create 32;
          injected = Hashtbl.create 16;
          ext_of = Hashtbl.create 16;
          port_uf = Uf.create ();
          port_dir = Hashtbl.create 32;
          reset_targets = Hashtbl.create 8;
          prop_uf = Uf.create ();
          prop_dir = Hashtbl.create 8;
          procs_rev = [];
          n_procs = 0;
          proc_idx = Hashtbl.create 16;
          flows = [];
        }
      in
      (* resolve extensions to instances *)
      List.iter
        (fun (ext : Ast.extension) ->
          let inst =
            match Instance.find root ext.ex_target with
            | Some i -> i
            | None ->
              fail "extension targets unknown instance %s"
                (Ast.path_to_string ext.ex_target)
          in
          let em =
            match Hashtbl.find_opt tables.error_models ext.ex_error_model with
            | Some em -> em
            | None -> fail "unknown error model %s" ext.ex_error_model
          in
          let key = join inst.path in
          if Hashtbl.mem b.ext_of key then
            fail "instance %s is extended twice" key;
          Hashtbl.add b.ext_of key (ext, em);
          (* validate + record injections *)
          List.iter
            (fun (inj : Ast.injection) ->
              (match inj.inj_target with
              | [ x ] -> (
                match Sema.find_feature inst.ct x with
                | Some { f_kind = Ast.P_data _; f_dir = Ast.Out; _ } -> ()
                | Some _ ->
                  fail "injection target %s.%s must be an output data port" key x
                | None -> fail "injection target %s.%s does not exist" key x)
              | p ->
                fail "injection target %s must be the instance's own port"
                  (Ast.path_to_string p));
              Hashtbl.replace b.injected (key_in inst inj.inj_target) ())
            ext.ex_injections)
        tables.extensions;
      record_event_endpoints b;
      record_propagations b;
      record_reset_targets b;
      declare_vars b;
      (* enumerate processes first (indices are needed by activation
         conditions and injection flows) *)
      let proc_plan = ref [] in
      Instance.iter
        (fun inst ->
          if inst.ci.ci_modes <> [] then begin
            Hashtbl.add b.proc_idx (join inst.path) b.n_procs;
            b.n_procs <- b.n_procs + 1;
            proc_plan := `Nominal inst :: !proc_plan
          end;
          match Hashtbl.find_opt b.ext_of (join inst.path) with
          | Some (_, em) ->
            Hashtbl.add b.proc_idx (join inst.path ^ "#" ^ em.em_name) b.n_procs;
            b.n_procs <- b.n_procs + 1;
            proc_plan := `Error (inst, em) :: !proc_plan
          | None -> ())
        root;
      let proc_plan = List.rev !proc_plan in
      (* ancestor chains for activation conditions *)
      let rec ancestors_of inst_path (node : Instance.t) acc =
        (* acc maps path -> ancestor list (nearest first) *)
        List.iter
          (fun (nm, sub) ->
            Hashtbl.add acc (join sub.Instance.path) (node, nm);
            ancestors_of (inst_path @ [ nm ]) sub acc)
          node.Instance.subs
      in
      let parent_tbl = Hashtbl.create 16 in
      ancestors_of [] root parent_tbl;
      let rec chain inst =
        match Hashtbl.find_opt parent_tbl (join inst.Instance.path) with
        | None -> []
        | Some (parent, nm) -> (parent, nm) :: chain parent
      in
      let activation inst = active_expr b (chain inst) inst in
      let procs =
        List.map
          (fun plan ->
            match plan with
            | `Nominal inst ->
              let proc = build_nominal_proc b inst in
              let meta =
                {
                  N.active_when = activation inst;
                  reactivation =
                    (if inst.Instance.restart then N.Restart else N.Resume);
                  owned_vars = owned_vars_of b inst;
                }
              in
              (proc, meta)
            | `Error (inst, em) ->
              let proc = build_error_proc b inst em in
              let timer_key = join inst.Instance.path ^ "#" ^ em.Ast.em_name ^ ".timer" in
              let owned =
                match Hashtbl.find_opt b.var_idx timer_key with
                | Some v -> [ v ]
                | None -> []
              in
              let meta =
                {
                  N.active_when = activation inst;
                  reactivation =
                    (if inst.Instance.restart then N.Restart else N.Resume);
                  owned_vars = owned;
                }
              in
              (proc, meta))
          proc_plan
      in
      record_flows b;
      record_injection_flows b;
      (* variable owners: nearest enclosing instance that has a process *)
      let vars = Array.of_list (List.rev b.vars_rev) in
      let owner_of_name name =
        (* strip "#..." suffix and the final element repeatedly *)
        let base =
          match String.index_opt name '#' with
          | Some i -> String.sub name 0 i
          | None -> name
        in
        let parts = if base = "main" then [] else String.split_on_char '.' base in
        let rec search p =
          match Hashtbl.find_opt b.proc_idx (join p) with
          | Some pid -> Some pid
          | None -> ( match List.rev p with [] -> None | _ :: t -> search (List.rev t))
        in
        (* a variable key is <instance path>.<element>; error timers are
           <instance path>#<em>.timer and owned by the error process *)
        match String.index_opt name '#' with
        | Some i -> (
          let em_part = String.sub name (i + 1) (String.length name - i - 1) in
          match String.index_opt em_part '.' with
          | Some j ->
            let em_name = String.sub em_part 0 j in
            Hashtbl.find_opt b.proc_idx (base ^ "#" ^ em_name)
          | None -> (
            (* "#inj" variables belong to the nominal owner *)
            match List.rev parts with
            | [] -> None
            | _ :: t -> search (List.rev t)))
        | None -> (
          match List.rev parts with [] -> None | _ :: t -> search (List.rev t))
      in
      let vars =
        Array.map
          (fun (vi : N.var_info) -> { vi with N.owner = owner_of_name vi.var_name })
          vars
      in
      let events = Array.of_list (List.rev b.events_rev) in
      let net = N.make ~procs ~vars ~events ~flows:b.flows in
      Ok net
    with
    | Translate_error msg -> Error msg
    | A.Invalid_process msg -> Error msg
    | N.Invalid_network msg -> Error msg
    | V.Type_error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Property resolution.                                                 *)

let resolve_property ?(enum = fun _ -> None)
    (net : Slimsim_sta.Network.t) (e : Ast.expr) =
  let exception Res_error of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Res_error s)) fmt in
  let lookup_var p =
    let full = join p in
    match N.find_var net (full ^ "#inj") with
    | Some v -> v
    | None -> (
      match N.find_var net full with
      | Some v -> v
      | None -> fail "unknown variable %s" full)
  in
  let lookup_mode p m =
    let base = join p in
    match N.find_proc net base with
    | Some proc -> (
      match N.find_loc net ~proc m with
      | Some l -> (proc, l)
      | None -> (
        (* try the instance's error automata *)
        let rec scan i =
          if i >= N.n_procs net then fail "process %s has no mode %s" base m
          else
            let name = N.proc_name net i in
            if
              String.length name > String.length base
              && String.sub name 0 (String.length base) = base
              && name.[String.length base] = '#'
            then
              match N.find_loc net ~proc:i m with
              | Some l -> (i, l)
              | None -> scan (i + 1)
            else scan (i + 1)
        in
        scan 0))
    | None ->
      (* no nominal process: look for error automata directly *)
      let rec scan i =
        if i >= N.n_procs net then fail "unknown process %s" base
        else
          let name = N.proc_name net i in
          if
            name = base
            || String.length name > String.length base
               && String.sub name 0 (String.length base) = base
               && name.[String.length base] = '#'
          then
            match N.find_loc net ~proc:i m with
            | Some l -> (i, l)
            | None -> scan (i + 1)
          else scan (i + 1)
      in
      scan 0
  in
  let rec go (e : Ast.expr) : E.t =
    match e with
    | Ast.E_bool v -> E.bool v
    | Ast.E_int n -> E.int n
    | Ast.E_real x -> E.real x
    | Ast.E_path ([ x ] as p) -> (
      (* variables shadow enumeration literals, as in model expressions *)
      let full = join p in
      match N.find_var net (full ^ "#inj") with
      | Some v -> E.var v
      | None -> (
        match N.find_var net full with
        | Some v -> E.var v
        | None -> (
          match enum x with
          | Some code -> E.int code
          | None -> fail "unknown variable %s" full)))
    | Ast.E_path p -> E.var (lookup_var p)
    | Ast.E_in_mode (p, m) ->
      let proc, l = lookup_mode p m in
      E.Loc (proc, l)
    | Ast.E_unop (Ast.U_neg, e1) -> E.Unop (E.Neg, go e1)
    | Ast.E_unop (Ast.U_not, e1) -> E.not_ (go e1)
    | Ast.E_binop (op, e1, e2) ->
      let bop =
        match op with
        | Ast.B_add -> E.Add | Ast.B_sub -> E.Sub | Ast.B_mul -> E.Mul
        | Ast.B_div -> E.Div | Ast.B_mod -> E.Mod | Ast.B_and -> E.And
        | Ast.B_or -> E.Or | Ast.B_implies -> E.Implies | Ast.B_eq -> E.Eq
        | Ast.B_neq -> E.Neq | Ast.B_lt -> E.Lt | Ast.B_le -> E.Le
        | Ast.B_gt -> E.Gt | Ast.B_ge -> E.Ge | Ast.B_min -> E.Min
        | Ast.B_max -> E.Max
      in
      E.Binop (bop, go e1, go e2)
  in
  match go e with v -> Ok v | exception Res_error m -> Error m
