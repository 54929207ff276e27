open Ast

type error = Diag.t
(* Semantic errors are ordinary diagnostics (code "E001", severity
   Error) so that they render uniformly with the lint findings of
   Slimsim_analyze. *)

type tables = {
  comp_types : (string, comp_type) Hashtbl.t;
  comp_impls : (string * string, comp_impl) Hashtbl.t;
  error_models : (string, error_model) Hashtbl.t;
  extensions : extension list;
  root_impl : comp_impl;
  enum_lits : (string, string list * int) Hashtbl.t;
      (* literal -> (signature, code); literals are model-global, one
         signature per literal (checked in [analyze]) *)
}

type ety = Ty_bool | Ty_int | Ty_real | Ty_enum of string list

let ety_of_ty = function
  | T_bool -> Ty_bool
  | T_int | T_int_range _ -> Ty_int
  | T_real | T_clock | T_continuous -> Ty_real
  | T_enum ls -> Ty_enum ls

let ety_to_string = function
  | Ty_bool -> "bool"
  | Ty_int -> "int"
  | Ty_real -> "real"
  | Ty_enum ls -> Printf.sprintf "enum (%s)" (String.concat ", " ls)

let enum_literal tables l = Hashtbl.find_opt tables.enum_lits l

let find_feature ct name =
  List.find_opt (fun f -> f.f_name = name) ct.ct_features

let find_data_sub ci name =
  List.find_map
    (function
      | Sub_data d when d.sd_name = name -> Some d
      | Sub_data _ | Sub_comp _ -> None)
    ci.ci_subcomps

let find_comp_sub ci name =
  List.find_map
    (function
      | Sub_comp c when c.sc_name = name -> Some c
      | Sub_comp _ | Sub_data _ -> None)
    ci.ci_subcomps

type ctx = { tables : tables; errors : error list ref }

let err ctx pos fmt =
  Format.kasprintf
    (fun msg ->
      ctx.errors :=
        Diag.make ~code:"E001" ~severity:Diag.Error ~pos msg :: !(ctx.errors))
    fmt

let check_unique ctx what pos names =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then err ctx pos "duplicate %s %S" what n
      else Hashtbl.add seen n ())
    names

(* Resolve a dotted path in the scope of implementation [ci]:
   - [x]     : a data subcomponent or a data port of the component itself
   - [s.p]   : a data port of direct subcomponent [s]
   Returns the erased type. *)
let resolve_data_path ctx ci pos p : ety option =
  match p with
  | [ x ] -> (
    match find_data_sub ci x with
    | Some d -> Some (ety_of_ty d.sd_ty)
    | None -> (
      match Hashtbl.find_opt ctx.tables.comp_types ci.ci_type with
      | None -> None
      | Some ct -> (
        match find_feature ct x with
        | Some { f_kind = P_data (ty, _); _ } -> Some (ety_of_ty ty)
        | Some { f_kind = P_event; _ } ->
          err ctx pos "%S is an event port, not data" x;
          None
        | None -> (
          (* bare identifiers fall back to enumeration literals;
             variables and ports shadow them *)
          match enum_literal ctx.tables x with
          | Some (ls, _) -> Some (Ty_enum ls)
          | None ->
            err ctx pos "unknown data element %S" x;
            None))))
  | [ s; x ] -> (
    match find_comp_sub ci s with
    | None ->
      err ctx pos "unknown subcomponent %S" s;
      None
    | Some sc -> (
      let tname, _ = sc.sc_impl in
      match Hashtbl.find_opt ctx.tables.comp_types tname with
      | None -> None
      | Some ct -> (
        match find_feature ct x with
        | Some { f_kind = P_data (ty, _); _ } -> Some (ety_of_ty ty)
        | Some { f_kind = P_event; _ } ->
          err ctx pos "%s.%s is an event port, not data" s x;
          None
        | None ->
          err ctx pos "subcomponent %S has no data port %S" s x;
          None)))
  | _ ->
    err ctx pos "path %S nests too deeply (only sub.port is allowed here)"
      (path_to_string p);
    None

(* Light type inference; [None] on already-reported resolution errors. *)
let rec infer ctx ci pos (e : expr) : ety option =
  let num_result t1 t2 =
    match t1, t2 with
    | Some Ty_bool, _ | _, Some Ty_bool ->
      err ctx pos "arithmetic on a Boolean";
      None
    | Some (Ty_enum _), _ | _, Some (Ty_enum _) ->
      err ctx pos "arithmetic on an enumeration";
      None
    | Some Ty_int, Some Ty_int -> Some Ty_int
    | Some _, Some _ -> Some Ty_real
    | _ -> None
  in
  match e with
  | E_bool _ -> Some Ty_bool
  | E_int _ -> Some Ty_int
  | E_real _ -> Some Ty_real
  | E_path p -> resolve_data_path ctx ci pos p
  | E_in_mode _ ->
    err ctx pos "'in mode' atoms are only allowed in properties";
    None
  | E_unop (U_not, e1) -> (
    match infer ctx ci pos e1 with
    | Some Ty_bool | None -> Some Ty_bool
    | Some t ->
      err ctx pos "'not' applied to %s" (ety_to_string t);
      Some Ty_bool)
  | E_unop (U_neg, e1) -> (
    match infer ctx ci pos e1 with
    | Some Ty_bool ->
      err ctx pos "'-' applied to bool";
      None
    | Some (Ty_enum _) ->
      err ctx pos "'-' applied to an enumeration";
      None
    | t -> t)
  | E_binop ((B_and | B_or | B_implies), e1, e2) ->
    List.iter
      (fun e' ->
        match infer ctx ci pos e' with
        | Some Ty_bool | None -> ()
        | Some t -> err ctx pos "Boolean operator applied to %s" (ety_to_string t))
      [ e1; e2 ];
    Some Ty_bool
  | E_binop ((B_eq | B_neq), e1, e2) -> (
    let t1 = infer ctx ci pos e1 and t2 = infer ctx ci pos e2 in
    match t1, t2 with
    | Some Ty_bool, Some (Ty_int | Ty_real) | Some (Ty_int | Ty_real), Some Ty_bool
      ->
      err ctx pos "comparing a Boolean with a number";
      Some Ty_bool
    | Some (Ty_enum l1), Some (Ty_enum l2) ->
      if l1 <> l2 then err ctx pos "comparing values of different enumerations";
      Some Ty_bool
    | Some (Ty_enum _), Some _ | Some _, Some (Ty_enum _) ->
      err ctx pos "comparing an enumeration with a non-enumeration";
      Some Ty_bool
    | _ -> Some Ty_bool)
  | E_binop ((B_lt | B_le | B_gt | B_ge), e1, e2) ->
    List.iter
      (fun e' ->
        match infer ctx ci pos e' with
        | Some Ty_bool -> err ctx pos "ordering a Boolean"
        | Some (Ty_enum _) -> err ctx pos "ordering an enumeration"
        | Some (Ty_int | Ty_real) | None -> ())
      [ e1; e2 ];
    Some Ty_bool
  | E_binop (B_mod, e1, e2) -> (
    let t1 = infer ctx ci pos e1 and t2 = infer ctx ci pos e2 in
    match t1, t2 with
    | Some Ty_int, Some Ty_int -> Some Ty_int
    | Some t, _ when t <> Ty_int ->
      err ctx pos "'mod' requires integers";
      None
    | _, Some t when t <> Ty_int ->
      err ctx pos "'mod' requires integers";
      None
    | _ -> Some Ty_int)
  | E_binop ((B_add | B_sub | B_mul | B_div | B_min | B_max), e1, e2) ->
    num_result (infer ctx ci pos e1) (infer ctx ci pos e2)

let check_bool ctx ci pos what e =
  match infer ctx ci pos e with
  | Some Ty_bool | None -> ()
  | Some t -> err ctx pos "%s must be Boolean, found %s" what (ety_to_string t)

let assignable ~target ~value =
  match target, value with
  | Ty_bool, Ty_bool -> true
  | Ty_int, Ty_int -> true
  | Ty_real, (Ty_int | Ty_real) -> true
  | Ty_enum l1, Ty_enum l2 -> l1 = l2
  | _ -> false

(* --- component types --- *)

let check_comp_type ctx ct =
  check_unique ctx "feature" ct.ct_pos (List.map (fun f -> f.f_name) ct.ct_features);
  List.iter
    (fun f ->
      match f.f_kind with
      | P_event -> ()
      | P_data (ty, default) -> (
        (match ty with
        | T_clock | T_continuous ->
          err ctx f.f_pos "port %S: clocks and continuous variables cannot be ports"
            f.f_name
        | T_int_range (a, b) when a > b ->
          err ctx f.f_pos "port %S: empty integer range" f.f_name
        | T_enum ls when List.length (List.sort_uniq compare ls) <> List.length ls
          ->
          err ctx f.f_pos "port %S: duplicate enumeration literal" f.f_name
        | _ -> ());
        match default with
        | None -> ()
        | Some (E_bool _) when ety_of_ty ty = Ty_bool -> ()
        | Some (E_int _) when (match ty with T_enum _ -> false | _ -> ety_of_ty ty <> Ty_bool) -> ()
        | Some (E_real _) when ety_of_ty ty = Ty_real -> ()
        | Some (E_unop (U_neg, (E_int _ | E_real _)))
          when (match ty with T_enum _ -> false | _ -> ety_of_ty ty <> Ty_bool) ->
          ()
        | Some (E_path [ l ]) when (match ty with T_enum ls -> List.mem l ls | _ -> false)
          ->
          ()
        | Some _ ->
          err ctx f.f_pos "port %S: default must be a literal of the port's type"
            f.f_name))
    ct.ct_features

(* --- component implementations --- *)

let sub_name = function
  | Sub_data d -> d.sd_name
  | Sub_comp c -> c.sc_name

let mode_exists ci m = List.exists (fun md -> md.m_name = m) ci.ci_modes

let check_comp_impl ctx ci =
  (match Hashtbl.find_opt ctx.tables.comp_types ci.ci_type with
  | None -> err ctx ci.ci_pos "implementation of unknown type %S" ci.ci_type
  | Some ct ->
    if ct.ct_category <> ci.ci_category then
      err ctx ci.ci_pos "implementation category differs from its type's");
  check_unique ctx "subcomponent" ci.ci_pos (List.map sub_name ci.ci_subcomps);
  check_unique ctx "mode" ci.ci_pos (List.map (fun m -> m.m_name) ci.ci_modes);
  (* data subcomponents *)
  List.iter
    (function
      | Sub_data d -> (
        (match d.sd_ty with
        | T_int_range (a, b) when a > b ->
          err ctx d.sd_pos "%S: empty integer range" d.sd_name
        | T_enum ls when List.length (List.sort_uniq compare ls) <> List.length ls
          ->
          err ctx d.sd_pos "%S: duplicate enumeration literal" d.sd_name
        | _ -> ());
        match d.sd_init, d.sd_ty with
        | None, _ -> ()
        | Some e, ty -> (
          match infer ctx ci d.sd_pos e with
          | None -> ()
          | Some et ->
            if not (assignable ~target:(ety_of_ty ty) ~value:et) then
              err ctx d.sd_pos "%S: initializer type %s does not fit %s" d.sd_name
                (ety_to_string et) (ty_to_string ty)))
      | Sub_comp c ->
        let t, i = c.sc_impl in
        if not (Hashtbl.mem ctx.tables.comp_impls (t, i)) then
          err ctx c.sc_pos "unknown implementation %s.%s" t i;
        List.iter
          (fun m ->
            if not (mode_exists ci m) then
              err ctx c.sc_pos "subcomponent %S activated in unknown mode %S"
                c.sc_name m)
          c.sc_in_modes)
    ci.ci_subcomps;
  (* modes *)
  let initials = List.filter (fun m -> m.m_initial) ci.ci_modes in
  if ci.ci_modes <> [] && List.length initials <> 1 then
    err ctx ci.ci_pos "implementation %s.%s needs exactly one initial mode"
      ci.ci_type ci.ci_name;
  List.iter
    (fun m ->
      (match m.m_invariant with
      | Some e -> check_bool ctx ci m.m_pos "mode invariant" e
      | None -> ());
      List.iter
        (fun (v, _) ->
          match find_data_sub ci v with
          | Some { sd_ty = T_clock | T_continuous; _ } -> ()
          | Some _ ->
            err ctx m.m_pos "derivative of %S: not a clock or continuous variable" v
          | None -> err ctx m.m_pos "derivative of unknown variable %S" v)
        m.m_derivs)
    ci.ci_modes;
  (* connections *)
  let endpoint_kind pos p =
    (* Returns (is_event, ety option, boundary) where boundary is `Own or
       `Sub, for direction checking. *)
    match p with
    | [ x ] -> (
      match Hashtbl.find_opt ctx.tables.comp_types ci.ci_type with
      | None -> None
      | Some ct -> (
        match find_feature ct x with
        | Some f -> Some (f, `Own)
        | None ->
          err ctx pos "connection references unknown port %S" x;
          None))
    | [ s; x ] -> (
      match find_comp_sub ci s with
      | None ->
        err ctx pos "connection references unknown subcomponent %S" s;
        None
      | Some sc -> (
        match Hashtbl.find_opt ctx.tables.comp_types (fst sc.sc_impl) with
        | None -> None
        | Some ct -> (
          match find_feature ct x with
          | Some f -> Some (f, `Sub)
          | None ->
            err ctx pos "subcomponent %S has no port %S" s x;
            None)))
    | _ ->
      err ctx pos "connection endpoint %S nests too deeply" (path_to_string p);
      None
  in
  List.iter
    (fun cn ->
      match endpoint_kind cn.cn_pos cn.cn_src, endpoint_kind cn.cn_pos cn.cn_dst with
      | Some (fs, bs), Some (fd, bd) -> (
        (match fs.f_kind, fd.f_kind with
        | P_event, P_event -> ()
        | P_data (t1, _), P_data (t2, _) ->
          if not (assignable ~target:(ety_of_ty t2) ~value:(ety_of_ty t1)) then
            err ctx cn.cn_pos "data connection with incompatible types (%s -> %s)"
              (ty_to_string t1) (ty_to_string t2)
        | P_event, P_data _ | P_data _, P_event ->
          err ctx cn.cn_pos "connection mixes an event port with a data port");
        (* Legal directions: sub.out -> sub.in; sub.out -> own.out;
           own.in -> sub.in; own.in -> own.out (pass-through). *)
        let src_ok =
          match bs, fs.f_dir with `Sub, Out | `Own, In -> true | _ -> false
        and dst_ok =
          match bd, fd.f_dir with `Sub, In | `Own, Out -> true | _ -> false
        in
        if not (src_ok && dst_ok) then
          err ctx cn.cn_pos "connection direction is invalid (%s -> %s)"
            (path_to_string cn.cn_src) (path_to_string cn.cn_dst))
      | _ -> ())
    ci.ci_connections;
  (* flow declarations: output values as expressions over inputs *)
  check_unique ctx "flow target" ci.ci_pos
    (List.map (fun (fl : Ast.flow) -> fl.fl_target) ci.ci_flows);
  List.iter
    (fun (fl : Ast.flow) ->
      (match Hashtbl.find_opt ctx.tables.comp_types ci.ci_type with
      | None -> ()
      | Some ct -> (
        match find_feature ct fl.fl_target with
        | Some { f_kind = P_data (ty, _); f_dir = Out; _ } -> (
          match infer ctx ci fl.fl_pos fl.fl_expr with
          | None -> ()
          | Some et ->
            if not (assignable ~target:(ety_of_ty ty) ~value:et) then
              err ctx fl.fl_pos "flow %S: expression type %s does not fit %s"
                fl.fl_target (ety_to_string et) (ty_to_string ty))
        | Some { f_kind = P_data _; f_dir = In; _ } ->
          err ctx fl.fl_pos "flow target %S must be an output port" fl.fl_target
        | Some { f_kind = P_event; _ } ->
          err ctx fl.fl_pos "flow target %S is an event port" fl.fl_target
        | None -> err ctx fl.fl_pos "flow target %S does not exist" fl.fl_target));
      (* a computed port cannot also be driven by a connection *)
      List.iter
        (fun cn ->
          if cn.cn_dst = [ fl.fl_target ] then
            err ctx fl.fl_pos
              "port %S is computed by a flow and driven by a connection"
              fl.fl_target)
        ci.ci_connections;
      (* nor assigned by transition effects *)
      List.iter
        (fun t ->
          List.iter
            (function
              | Eff_assign ([ x ], _) when x = fl.fl_target ->
                err ctx fl.fl_pos
                  "port %S is computed by a flow and assigned by a transition"
                  fl.fl_target
              | Eff_assign _ | Eff_reset _ -> ())
            t.t_effects)
        ci.ci_transitions)
    ci.ci_flows;
  (* transitions *)
  if ci.ci_transitions <> [] && ci.ci_modes = [] then
    err ctx ci.ci_pos "implementation %s.%s has transitions but no modes" ci.ci_type
      ci.ci_name;
  List.iter
    (fun t ->
      if ci.ci_modes <> [] then begin
        if not (mode_exists ci t.t_src) then
          err ctx t.t_pos "transition from unknown mode %S" t.t_src;
        if not (mode_exists ci t.t_dst) then
          err ctx t.t_pos "transition to unknown mode %S" t.t_dst
      end;
      (match t.t_trigger with
      | Trig_none -> ()
      | Trig_rate r ->
        if r <= 0.0 then err ctx t.t_pos "transition rate must be positive";
        if t.t_guard <> None then
          err ctx t.t_pos "a rate transition cannot also carry a guard"
      | Trig_event p -> (
        match p with
        | [ x ] -> (
          match Hashtbl.find_opt ctx.tables.comp_types ci.ci_type with
          | None -> ()
          | Some ct -> (
            match find_feature ct x with
            | Some { f_kind = P_event; _ } -> ()
            | Some _ -> err ctx t.t_pos "trigger %S is not an event port" x
            | None -> err ctx t.t_pos "trigger references unknown port %S" x))
        | _ ->
          err ctx t.t_pos "trigger %S must be the component's own port"
            (path_to_string p)));
      (match t.t_guard with
      | Some g -> check_bool ctx ci t.t_pos "transition guard" g
      | None -> ());
      List.iter
        (function
          | Eff_assign (p, e) -> (
            let target_ty =
              match p with
              | [ x ] -> (
                match find_data_sub ci x with
                | Some d -> Some (ety_of_ty d.sd_ty)
                | None -> (
                  match Hashtbl.find_opt ctx.tables.comp_types ci.ci_type with
                  | None -> None
                  | Some ct -> (
                    match find_feature ct x with
                    | Some { f_kind = P_data (ty, _); f_dir = Out; _ } ->
                      Some (ety_of_ty ty)
                    | Some { f_kind = P_data _; f_dir = In; _ } ->
                      err ctx t.t_pos
                        "cannot assign to input data port %S (it is driven by a connection)"
                        x;
                      None
                    | Some { f_kind = P_event; _ } ->
                      err ctx t.t_pos "cannot assign to event port %S" x;
                      None
                    | None ->
                      err ctx t.t_pos "assignment to unknown element %S" x;
                      None)))
              | _ ->
                err ctx t.t_pos "assignment target %S must be the component's own"
                  (path_to_string p);
                None
            in
            match target_ty, infer ctx ci t.t_pos e with
            | Some tt, Some vt ->
              if not (assignable ~target:tt ~value:vt) then
                err ctx t.t_pos "assignment of %s to %s %S" (ety_to_string vt)
                  (ety_to_string tt) (path_to_string p)
            | _ -> ())
          | Eff_reset p -> (
            (match t.t_trigger with
            | Trig_event _ | Trig_rate _ ->
              err ctx t.t_pos
                "'reset' effects are only allowed on internal guarded transitions"
            | Trig_none -> ());
            let resets =
              List.filter
                (function Eff_reset _ -> true | Eff_assign _ -> false)
                t.t_effects
            in
            if List.length resets > 1 then
              err ctx t.t_pos "at most one reset effect per transition";
            match p with
            | [ s ] -> (
              match find_comp_sub ci s with
              | Some _ -> ()
              | None -> err ctx t.t_pos "reset of unknown subcomponent %S" s)
            | _ ->
              err ctx t.t_pos "reset target %S must be a direct subcomponent"
                (path_to_string p)))
        t.t_effects)
    ci.ci_transitions;
  (* the paper's exclusivity condition per mode *)
  List.iter
    (fun m ->
      let outgoing = List.filter (fun t -> t.t_src = m.m_name) ci.ci_transitions in
      let has_rate =
        List.exists (fun t -> match t.t_trigger with Trig_rate _ -> true | _ -> false) outgoing
      in
      if has_rate then begin
        let has_internal_guard =
          List.exists
            (fun t -> t.t_trigger = Trig_none)
            outgoing
        in
        if has_internal_guard then
          err ctx m.m_pos
            "mode %S mixes rate transitions with internal guarded transitions"
            m.m_name;
        if m.m_invariant <> None then
          err ctx m.m_pos "mode %S has rate transitions and therefore no invariant"
            m.m_name
      end)
    ci.ci_modes

(* --- error models --- *)

let check_error_model ctx em =
  check_unique ctx "error state" em.em_pos
    (List.map (fun s -> s.es_name) em.em_states);
  check_unique ctx "error event" em.em_pos
    (List.map (fun e -> e.ee_name) em.em_events);
  check_unique ctx "propagation" em.em_pos
    (List.map (fun p -> p.ep_name) em.em_propagations);
  if em.em_states = [] then err ctx em.em_pos "error model %S has no states" em.em_name
  else if List.length (List.filter (fun s -> s.es_initial) em.em_states) <> 1 then
    err ctx em.em_pos "error model %S needs exactly one initial state" em.em_name;
  List.iter
    (fun e ->
      if e.ee_rate <= 0.0 then
        err ctx e.ee_pos "error event %S: rate must be positive" e.ee_name)
    em.em_events;
  let state_exists s = List.exists (fun st -> st.es_name = s) em.em_states in
  List.iter
    (fun t ->
      if not (state_exists t.et_src) then
        err ctx t.et_pos "transition from unknown error state %S" t.et_src;
      if not (state_exists t.et_dst) then
        err ctx t.et_pos "transition to unknown error state %S" t.et_dst;
      match t.et_trigger with
      | Etrig_event name ->
        let is_event = List.exists (fun e -> e.ee_name = name) em.em_events in
        let is_prop =
          List.exists (fun p -> p.ep_name = name) em.em_propagations
        in
        if not (is_event || is_prop) then
          err ctx t.et_pos "unknown error event or propagation %S" name
      | Etrig_within (_, a, b) ->
        if a < 0.0 || b < a then
          err ctx t.et_pos "invalid delay window [%g, %g]" a b
      | Etrig_activation -> ())
    em.em_transitions;
  (* Exclusivity: a state with exponential (error-event) exits cannot also
     carry 'within' windows, which need an invariant. *)
  List.iter
    (fun s ->
      let outgoing =
        List.filter (fun t -> t.et_src = s.es_name) em.em_transitions
      in
      let has_rate =
        List.exists
          (fun t ->
            match t.et_trigger with
            | Etrig_event n -> List.exists (fun e -> e.ee_name = n) em.em_events
            | _ -> false)
          outgoing
      and has_within =
        List.exists
          (fun t -> match t.et_trigger with Etrig_within _ -> true | _ -> false)
          outgoing
      in
      if has_rate && has_within then
        err ctx s.es_pos
          "error state %S mixes exponential events with 'within' windows" s.es_name)
    em.em_states

(* --- containment recursion --- *)

let check_recursion ctx =
  let visiting = Hashtbl.create 8 and done_ = Hashtbl.create 8 in
  let rec visit key =
    if Hashtbl.mem done_ key then ()
    else if Hashtbl.mem visiting key then begin
      let t, i = key in
      err ctx no_pos "component %s.%s contains itself (recursive definition)" t i
    end
    else
      match Hashtbl.find_opt ctx.tables.comp_impls key with
      | None -> ()
      | Some ci ->
        Hashtbl.add visiting key ();
        List.iter
          (function
            | Sub_comp c -> visit c.sc_impl
            | Sub_data _ -> ())
          ci.ci_subcomps;
        Hashtbl.remove visiting key;
        Hashtbl.add done_ key ()
  in
  Hashtbl.iter (fun key _ -> visit key) ctx.tables.comp_impls

(* --- extension declarations --- *)

(* The implementation of the instance at [path] below [ci], if any. *)
let rec instance_impl ctx ci = function
  | [] -> Some ci
  | s :: path ->
    Option.bind (find_comp_sub ci s) (fun sc ->
        Option.bind (Hashtbl.find_opt ctx.tables.comp_impls sc.sc_impl) (fun ci ->
            instance_impl ctx ci path))

(* An injected value is read in the extended instance's scope (below
   [root], the root implementation) and must fit its port. *)
let check_extension ctx root ex =
  match Hashtbl.find_opt ctx.tables.error_models ex.ex_error_model with
  | None -> err ctx ex.ex_pos "extension with unknown error model %S" ex.ex_error_model
  | Some em ->
    let inst = Option.bind root (fun ci -> instance_impl ctx ci ex.ex_target) in
    List.iter
      (fun inj ->
        let pos = inj.inj_pos in
        if not (List.exists (fun s -> s.es_name = inj.inj_state) em.em_states) then
          err ctx pos "injection for unknown error state %S" inj.inj_state;
        Option.iter
          (fun ci ->
            match resolve_data_path ctx ci pos inj.inj_target, infer ctx ci pos inj.inj_value with
            | Some target, Some value when not (assignable ~target ~value) ->
              err ctx pos "injection into %s: value type %s does not fit %s"
                (path_to_string inj.inj_target) (ety_to_string value) (ety_to_string target)
            | _ -> ())
          inst)
      ex.ex_injections

let analyze (m : model) =
  let tables =
    {
      comp_types = Hashtbl.create 16;
      comp_impls = Hashtbl.create 16;
      error_models = Hashtbl.create 16;
      extensions =
        List.filter_map
          (function D_extension e -> Some e | _ -> None)
          m.declarations;
      root_impl =
        (* patched below once the tables are filled *)
        {
          ci_category = System;
          ci_type = "";
          ci_name = "";
          ci_subcomps = [];
          ci_connections = [];
          ci_flows = [];
          ci_modes = [];
          ci_transitions = [];
          ci_pos = no_pos;
        };
      enum_lits = Hashtbl.create 16;
    }
  in
  let errors = ref [] in
  let ctx = { tables; errors } in
  (* Register enumeration literals model-wide.  A literal may appear in
     several declarations as long as the signature (the full ordered
     literal list) is identical everywhere; otherwise a bare identifier
     would be ambiguous. *)
  let register_enum pos ls =
    List.iteri
      (fun i l ->
        match Hashtbl.find_opt tables.enum_lits l with
        | Some (ls', _) when ls' <> ls ->
          err ctx pos
            "enumeration literal %S belongs to two different enumerations" l
        | Some _ -> ()
        | None -> Hashtbl.add tables.enum_lits l (ls, i))
      ls
  in
  List.iter
    (function
      | D_comp_type ct ->
        List.iter
          (fun f ->
            match f.f_kind with
            | P_data (T_enum ls, _) -> register_enum f.f_pos ls
            | P_data _ | P_event -> ())
          ct.ct_features
      | D_comp_impl ci ->
        List.iter
          (function
            | Sub_data { sd_ty = T_enum ls; sd_pos; _ } ->
              register_enum sd_pos ls
            | Sub_data _ | Sub_comp _ -> ())
          ci.ci_subcomps
      | D_error_model _ | D_extension _ -> ())
    m.declarations;
  List.iter
    (function
      | D_comp_type ct ->
        if Hashtbl.mem tables.comp_types ct.ct_name then
          err ctx ct.ct_pos "duplicate component type %S" ct.ct_name
        else Hashtbl.add tables.comp_types ct.ct_name ct
      | D_comp_impl ci ->
        let key = (ci.ci_type, ci.ci_name) in
        if Hashtbl.mem tables.comp_impls key then
          err ctx ci.ci_pos "duplicate implementation %s.%s" ci.ci_type ci.ci_name
        else Hashtbl.add tables.comp_impls key ci
      | D_error_model em ->
        if Hashtbl.mem tables.error_models em.em_name then
          err ctx em.em_pos "duplicate error model %S" em.em_name
        else Hashtbl.add tables.error_models em.em_name em
      | D_extension _ -> ())
    m.declarations;
  List.iter
    (function
      | D_comp_type ct -> check_comp_type ctx ct
      | D_comp_impl ci -> check_comp_impl ctx ci
      | D_error_model em -> check_error_model ctx em
      | D_extension ex -> check_extension ctx (Hashtbl.find_opt tables.comp_impls m.root) ex)
    m.declarations;
  check_recursion ctx;
  let result =
    match Hashtbl.find_opt tables.comp_impls m.root with
    | None ->
      let t, i = m.root in
      err ctx no_pos "root implementation %s.%s is not declared" t i;
      None
    | Some root -> Some { tables with root_impl = root }
  in
  match !errors, result with
  | [], Some t -> Ok t
  | errs, _ -> Error (List.rev errs)

(* Thin compat wrappers over the structured diagnostics. *)
let pp_error = Diag.pp

let errors_to_string errs =
  String.concat "\n" (List.map Diag.to_string errs)
