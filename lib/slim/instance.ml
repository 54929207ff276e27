type t = {
  path : string list;
  ci : Ast.comp_impl;
  ct : Ast.comp_type;
  in_modes : string list;
  restart : bool;
  subs : (string * t) list;
}

exception Build_error of string

let build (tables : Sema.tables) =
  let rec instantiate path (ci : Ast.comp_impl) in_modes restart =
    let ct =
      match Hashtbl.find_opt tables.comp_types ci.ci_type with
      | Some ct -> ct
      | None -> raise (Build_error ("unknown component type " ^ ci.ci_type))
    in
    let subs =
      List.filter_map
        (function
          | Ast.Sub_data _ -> None
          | Ast.Sub_comp sc -> (
            match Hashtbl.find_opt tables.comp_impls sc.sc_impl with
            | None ->
              let t, i = sc.sc_impl in
              raise (Build_error (Printf.sprintf "unknown implementation %s.%s" t i))
            | Some sub_ci ->
              Some
                ( sc.sc_name,
                  instantiate (path @ [ sc.sc_name ]) sub_ci sc.sc_in_modes
                    sc.sc_restart )))
        ci.ci_subcomps
    in
    { path; ci; ct; in_modes; restart; subs }
  in
  match instantiate [] tables.root_impl [] false with
  | t -> Ok t
  | exception Build_error msg -> Error msg

let rec find t = function
  | [] -> Some t
  | name :: rest -> (
    match List.assoc_opt name t.subs with
    | Some sub -> find sub rest
    | None -> None)

let rec iter f t =
  f t;
  List.iter (fun (_, sub) -> iter f sub) t.subs

let count t =
  let n = ref 0 in
  iter (fun _ -> incr n) t;
  !n
