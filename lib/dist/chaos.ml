type action = Kill | Exit of int | Stall | Corrupt | Dup | Delay of float

type rule = {
  worker : int option;
  attempt : int option;
  at : int;  (* path id; -1 = boot *)
  action : action;
  mutable fired : bool;
}

type t = rule list

let none = []

let action_to_string = function
  | Kill -> "kill"
  | Exit c -> if c = 3 then "exit" else Printf.sprintf "exit:%d" c
  | Stall -> "stall"
  | Corrupt -> "corrupt"
  | Dup -> "dup"
  | Delay s -> Printf.sprintf "delay:%g" s

let rule_to_string r =
  let sel =
    match (r.worker, r.attempt) with
    | None, None -> ""
    | Some w, None -> Printf.sprintf "w%d:" w
    | None, Some a -> Printf.sprintf "a%d:" a
    | Some w, Some a -> Printf.sprintf "w%da%d:" w a
  in
  let trigger = if r.at < 0 then "boot" else string_of_int r.at in
  let name, arg =
    match action_to_string r.action with
    | s -> (
      match String.index_opt s ':' with
      | None -> (s, "")
      | Some i -> (String.sub s 0 i, String.sub s i (String.length s - i)))
  in
  Printf.sprintf "%s%s@%s%s" sel name trigger arg

let to_string t = String.concat ";" (List.map rule_to_string t)

let parse_selector s =
  (* "", "w1", "a0", "w1a0" *)
  if s = "" then Ok (None, None)
  else
    let fail () = Error (Printf.sprintf "chaos: bad selector %S" s) in
    let num sub = int_of_string_opt sub in
    if s.[0] = 'w' then (
      match String.index_opt s 'a' with
      | None -> (
        match num (String.sub s 1 (String.length s - 1)) with
        | Some w -> Ok (Some w, None)
        | None -> fail ())
      | Some i -> (
        match (num (String.sub s 1 (i - 1)), num (String.sub s (i + 1) (String.length s - i - 1)))
        with
        | Some w, Some a -> Ok (Some w, Some a)
        | _ -> fail ()))
    else if s.[0] = 'a' then (
      match num (String.sub s 1 (String.length s - 1)) with
      | Some a -> Ok (None, Some a)
      | None -> fail ())
    else fail ()

let parse_rule s =
  let ( let* ) = Result.bind in
  (* Action names contain no colon, so a colon before the '@' can only
     end a selector prefix; one after it introduces the action arg. *)
  let* sel, body =
    match (String.index_opt s ':', String.index_opt s '@') with
    | Some i, Some j when i < j ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | _ -> Ok ("", s)
  in
  let* worker, attempt = parse_selector sel in
  let* name, trigger, arg =
    match String.index_opt body '@' with
    | None -> Error (Printf.sprintf "chaos: rule %S has no '@trigger'" s)
    | Some i ->
      let name = String.sub body 0 i in
      let rest = String.sub body (i + 1) (String.length body - i - 1) in
      (match String.index_opt rest ':' with
      | None -> Ok (name, rest, None)
      | Some j ->
        Ok
          ( name,
            String.sub rest 0 j,
            Some (String.sub rest (j + 1) (String.length rest - j - 1)) ))
  in
  let* at =
    if trigger = "boot" then Ok (-1)
    else
      match int_of_string_opt trigger with
      | Some p when p >= 0 -> Ok p
      | _ -> Error (Printf.sprintf "chaos: bad trigger %S" trigger)
  in
  let* action =
    match (name, arg) with
    | "kill", None -> Ok Kill
    | "exit", None -> Ok (Exit 3)
    | "exit", Some c -> (
      match int_of_string_opt c with
      | Some c when c > 0 && c < 256 -> Ok (Exit c)
      | _ -> Error (Printf.sprintf "chaos: bad exit code %S" c))
    | "stall", None -> Ok Stall
    | "corrupt", None -> Ok Corrupt
    | "dup", None -> Ok Dup
    | "delay", None -> Ok (Delay 0.2)
    | "delay", Some a -> (
      match float_of_string_opt a with
      | Some d when d >= 0.0 -> Ok (Delay d)
      | _ -> Error (Printf.sprintf "chaos: bad delay %S" a))
    | name, _ -> Error (Printf.sprintf "chaos: unknown action %S" name)
  in
  Ok { worker; attempt; at; action; fired = false }

let parse s =
  if String.trim s = "" then Ok none
  else
    String.split_on_char ';' s
    |> List.filter (fun r -> String.trim r <> "")
    |> List.fold_left
         (fun acc r ->
           Result.bind acc (fun acc ->
               Result.map (fun rule -> rule :: acc) (parse_rule (String.trim r))))
         (Ok [])
    |> Result.map List.rev

let fire t ~worker ~attempt ~path =
  let matches r =
    (not r.fired)
    && (match r.worker with None -> true | Some w -> w = worker)
    && (match r.attempt with None -> true | Some a -> a = attempt)
    && r.at = path
  in
  match List.find_opt matches t with
  | Some r ->
    r.fired <- true;
    Some r.action
  | None -> None
