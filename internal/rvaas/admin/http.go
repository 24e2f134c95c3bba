package admin

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// APIVersionHeader is set on every response (including errors) so clients
// can detect the contract revision they are talking to.
const APIVersionHeader = "X-RVaaS-Api-Version"

// Handler maps the admin service onto a local HTTP API (contract v1):
//
//	GET  /v1/version                       API + build version info
//	GET  /v1/overview                      health summary
//	GET  /v1/subs?status=&client=&kind=&session=&cursor=&limit=
//	GET  /v1/subs/{id}/history?cursor=&limit=
//	GET  /v1/shards                        per-shard engine stats
//	GET  /v1/verifiers                     verifier fleet shape + per-instance stats
//	GET  /v1/sessions?cursor=&limit=       client + switch sessions
//	GET  /v1/procs                         per-process health (placed labs)
//	GET  /v1/campaign                      adversarial-campaign progress (attacksim)
//	POST /v1/resync?switch=N               force a switch resync
//	GET  /v1/faults                        fault-plane state (placed labs)
//	POST /v1/faults                        open a runtime fault window (JSON body)
//	POST /v1/faults/clear?id=N | ?all=1    clear fault windows
//
// Responses are JSON and carry the X-RVaaS-Api-Version header; failures are
// the typed envelope {code, message, detail} with a matching 4xx/5xx status.
// Listings paginate with cursor/limit uniformly. The endpoint is an operator
// plane, not a tenant plane: rvaasd binds it to loopback by default and it
// carries no authentication.
func Handler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	handle := func(method, pattern string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+pattern, h)
		// The bare pattern catches wrong-method requests so they get the
		// typed envelope instead of the mux's plain-text 405.
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			writeError(w, &Error{
				Code:    CodeMethodNotAllowed,
				Message: "method " + r.Method + " not allowed",
				Detail:  "use " + method + " " + pattern,
			})
		})
	}
	handle("GET", "/v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Version())
	})
	handle("GET", "/v1/overview", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Overview())
	})
	handle("GET", "/v1/subs", func(w http.ResponseWriter, r *http.Request) {
		filter, cursor, limit, err := parseSubsQuery(r)
		if err != nil {
			writeError(w, err)
			return
		}
		page, err := svc.ListSubscriptions(filter, cursor, limit)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, page)
	})
	handle("GET", "/v1/subs/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeError(w, badRequest("bad subscription id %q", r.PathValue("id")))
			return
		}
		cursor, limit, perr := parsePageQuery(r)
		if perr != nil {
			writeError(w, perr)
			return
		}
		view, verr := svc.VerdictHistory(id, cursor, limit)
		if verr != nil {
			writeError(w, verr)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	handle("GET", "/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.ShardStats())
	})
	handle("GET", "/v1/verifiers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Verifiers())
	})
	handle("GET", "/v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		cursor, limit, err := parsePageQuery(r)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, svc.Sessions(cursor, limit))
	})
	handle("GET", "/v1/procs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Procs())
	})
	handle("GET", "/v1/campaign", func(w http.ResponseWriter, r *http.Request) {
		view, err := svc.Campaign()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	handle("POST", "/v1/resync", func(w http.ResponseWriter, r *http.Request) {
		raw := r.URL.Query().Get("switch")
		sw, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			writeError(w, badRequest("bad or missing switch parameter %q", raw))
			return
		}
		if err := svc.ForceResync(uint32(sw)); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"resync": sw})
	})
	// /v1/faults serves two methods, so the wrong-method catch-all is
	// registered once by hand instead of through handle().
	mux.HandleFunc("/v1/faults", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &Error{
			Code:    CodeMethodNotAllowed,
			Message: "method " + r.Method + " not allowed",
			Detail:  "use GET /v1/faults or POST /v1/faults",
		})
	})
	mux.HandleFunc("GET /v1/faults", func(w http.ResponseWriter, r *http.Request) {
		view, err := svc.FaultsState()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("POST /v1/faults", func(w http.ResponseWriter, r *http.Request) {
		var req FaultInjectRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, badRequest("bad fault request body: %v", err))
			return
		}
		win, err := svc.InjectFault(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, win)
	})
	handle("POST", "/v1/faults/clear", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		all := q.Get("all") == "1" || q.Get("all") == "true"
		var id uint64
		if raw := q.Get("id"); raw != "" {
			var err error
			if id, err = strconv.ParseUint(raw, 10, 64); err != nil {
				writeError(w, badRequest("bad window id %q", raw))
				return
			}
		}
		res, err := svc.ClearFaults(id, all)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	// Anything else under the mux is a typed not_found instead of the
	// default plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, notFound("no such endpoint %s", r.URL.Path))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(APIVersionHeader, APIVersion)
		mux.ServeHTTP(w, r)
	})
}

func parseSubsQuery(r *http.Request) (SubFilter, uint64, int, error) {
	q := r.URL.Query()
	filter := SubFilter{Status: q.Get("status"), Kind: q.Get("kind")}
	var err error
	if raw := q.Get("client"); raw != "" {
		if filter.Client, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return filter, 0, 0, badRequest("bad client %q", raw)
		}
	}
	if raw := q.Get("session"); raw != "" {
		if filter.Session, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return filter, 0, 0, badRequest("bad session %q", raw)
		}
		filter.HasSession = true
	}
	cursor, limit, perr := parsePageQuery(r)
	if perr != nil {
		return filter, 0, 0, perr
	}
	return filter, cursor, limit, nil
}

// parsePageQuery reads the uniform cursor/limit pagination parameters. The
// pre-v1 names (after, pageSize) are rejected with a pointer to the rename
// rather than silently ignored.
func parsePageQuery(r *http.Request) (uint64, int, error) {
	q := r.URL.Query()
	for old, now := range map[string]string{"after": "cursor", "pageSize": "limit"} {
		if q.Has(old) {
			return 0, 0, badRequest("unknown parameter %q (renamed to %q in API v1)", old, now)
		}
	}
	var cursor uint64
	limit := 0
	var err error
	if raw := q.Get("cursor"); raw != "" {
		if cursor, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return 0, 0, badRequest("bad cursor %q", raw)
		}
	}
	if raw := q.Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil || limit < 0 {
			return 0, 0, badRequest("bad limit %q", raw)
		}
	}
	return cursor, limit, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	e := AsError(err)
	writeJSON(w, e.HTTPStatus(), e)
}
