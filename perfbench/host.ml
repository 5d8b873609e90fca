(* Host stamp printed with every result: numbers are only comparable
   between runs on one host. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let cpu_model () =
  let prefix = "model name" in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (read_lines "/proc/cpuinfo")
  with
  | None -> "unknown"
  | Some l -> (
    match String.index_opt l ':' with
    | None -> "unknown"
    | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)))

let stamp () =
  let cores = Domain.recommended_domain_count () in
  let model = cpu_model () in
  let host = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  let hash =
    String.sub
      (Digest.to_hex
         (Digest.string
            (String.concat "|"
               [ host; model; string_of_int cores; Sys.ocaml_version ])))
      0 12
  in
  Fpart_obs.Json.Obj
    [
      ("cores", Fpart_obs.Json.Int cores);
      ("cpu_model", Fpart_obs.Json.Str model);
      ("ocaml", Fpart_obs.Json.Str Sys.ocaml_version);
      ("host_hash", Fpart_obs.Json.Str hash);
    ]

(* Peak resident set of a process in MiB, from /proc/<pid>/status. *)
let max_rss_mb pid =
  let prefix = "VmHWM:" in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (read_lines (Printf.sprintf "/proc/%s/status" pid))
  with
  | None -> 0.0
  | Some l ->
    let digits =
      String.to_seq l
      |> Seq.filter (fun c -> c >= '0' && c <= '9')
      |> String.of_seq
    in
    (match float_of_string_opt digits with
    | Some kb -> kb /. 1024.0
    | None -> 0.0)
