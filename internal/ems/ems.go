// Package ems simulates a vendor element management system (EMS), the
// interface through which configuration reaches base-station hardware
// (Sec 5): parameters are organized as managed objects addressed by
// carrier, values are read and written through a line-oriented protocol,
// carriers can be locked (taken off-air) and unlocked, and the EMS
// restricts how many parameter executions run concurrently — the
// restriction that produced the paper's change-implementation timeouts.
//
// The protocol is plain text over TCP, one request per line:
//
//	GET <carrier> <param>                -> OK <value>
//	SET <carrier> <param> <value>        -> OK
//	BULKSET <carrier> <p>=<v>;<p>=<v>;…  -> OK <n> (atomic, one queue slot)
//	GETREL <carrier> <nbr> <param>       -> OK <value>
//	SETREL <carrier> <nbr> <param> <val> -> OK
//	LOCK <carrier>                       -> OK
//	UNLOCK <carrier>                     -> OK
//	STATE <carrier>                      -> OK locked|unlocked
//	BYE                                  -> OK (server closes)
//
// BULKSET exists because per-parameter execution against a bounded queue
// is what produced the paper's change-implementation timeouts (Sec 5: "we
// are working with our internal teams to enhance our controller software
// to speed up execution for a large number of parameter changes"): it
// validates every assignment, then executes the whole batch under a
// single execution slot and a single latency charge.
//
// Errors come back as "ERR <CODE> <message>"; codes are BADREQ, RANGE,
// UNLOCKED, TIMEOUT and INTERNAL.
package ems

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"auric/internal/lte"
	"auric/internal/paramspec"
)

// Config tunes server behaviour.
type Config struct {
	// MaxConcurrentSets bounds concurrent SET executions; further SETs
	// queue. Zero means 4.
	MaxConcurrentSets int
	// SetLatency is the simulated execution time of one SET. Zero means
	// no artificial latency.
	SetLatency time.Duration
	// QueueTimeout fails a SET that waited longer than this for an
	// execution slot — the paper's timeout fall-out. Zero means 2s.
	QueueTimeout time.Duration
	// EnforceLock rejects SETs on unlocked carriers (changing such
	// parameters requires the carrier to be locked, Sec 5). Default true
	// via NewServer.
	EnforceLock bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentSets <= 0 {
		c.MaxConcurrentSets = 4
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	return c
}

// Server is a simulated EMS fronting one network's configuration store.
type Server struct {
	cfg    Config
	schema *paramspec.Schema

	mu      sync.Mutex
	store   *lte.Config
	locked  map[lte.CarrierID]bool
	setSlot chan struct{}

	lis  net.Listener
	wg   sync.WaitGroup
	done chan struct{}

	// SetCount counts successful SET/SETREL executions (for tests and
	// reports); guarded by mu.
	setCount int
}

// NewServer creates a server over the given configuration store. Carriers
// present in store start unlocked (they are live); carriers beyond the
// store's initial population can still be locked/unlocked by ID.
func NewServer(schema *paramspec.Schema, store *lte.Config, cfg Config) *Server {
	cfg = cfg.withDefaults()
	cfg.EnforceLock = true
	return &Server{
		cfg:     cfg,
		schema:  schema,
		store:   store,
		locked:  make(map[lte.CarrierID]bool),
		setSlot: make(chan struct{}, cfg.MaxConcurrentSets),
		done:    make(chan struct{}),
	}
}

// AllowUnlockedSets disables lock enforcement (used by tests).
func (s *Server) AllowUnlockedSets() { s.cfg.EnforceLock = false }

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return lis.Addr().String(), nil
}

// Close stops the listener and waits for connections to drain.
func (s *Server) Close() error {
	close(s.done)
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.wg.Wait()
	return err
}

// SetCount reports the number of successful SET/SETREL executions.
func (s *Server) SetCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setCount
}

// Locked reports a carrier's lock state.
func (s *Server) Locked(id lte.CarrierID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.locked[id]
}

// ForceUnlock unlocks a carrier out-of-band, simulating the engineers who
// "were prematurely unlocking the carriers through off-band interfaces"
// (Sec 5).
func (s *Server) ForceUnlock(id lte.CarrierID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locked[id] = false
}

// ForceLock locks a carrier out-of-band (new carriers arrive locked).
func (s *Server) ForceLock(id lte.CarrierID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locked[id] = true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		resp, bye := s.handle(line)
		fmt.Fprintln(w, resp)
		if err := w.Flush(); err != nil || bye {
			return
		}
	}
}

func (s *Server) handle(line string) (resp string, bye bool) {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "BYE":
		return "OK", true
	case "GET":
		if len(fields) != 3 {
			return "ERR BADREQ GET <carrier> <param>", false
		}
		return s.get(fields[1], fields[2], "")
	case "GETREL":
		if len(fields) != 4 {
			return "ERR BADREQ GETREL <carrier> <neighbor> <param>", false
		}
		return s.get(fields[1], fields[3], fields[2])
	case "SET":
		if len(fields) != 4 {
			return "ERR BADREQ SET <carrier> <param> <value>", false
		}
		return s.set(fields[1], fields[2], fields[3], "")
	case "BULKSET":
		if len(fields) != 3 {
			return "ERR BADREQ BULKSET <carrier> <param>=<value>;...", false
		}
		return s.bulkSet(fields[1], fields[2])
	case "SETREL":
		if len(fields) != 5 {
			return "ERR BADREQ SETREL <carrier> <neighbor> <param> <value>", false
		}
		return s.set(fields[1], fields[3], fields[4], fields[2])
	case "LOCK", "UNLOCK":
		if len(fields) != 2 {
			return "ERR BADREQ " + cmd + " <carrier>", false
		}
		id, err := s.carrierID(fields[1])
		if err != nil {
			return "ERR BADREQ " + err.Error(), false
		}
		s.mu.Lock()
		s.locked[id] = cmd == "LOCK"
		s.mu.Unlock()
		return "OK", false
	case "STATE":
		if len(fields) != 2 {
			return "ERR BADREQ STATE <carrier>", false
		}
		id, err := s.carrierID(fields[1])
		if err != nil {
			return "ERR BADREQ " + err.Error(), false
		}
		s.mu.Lock()
		locked := s.locked[id]
		s.mu.Unlock()
		if locked {
			return "OK locked", false
		}
		return "OK unlocked", false
	default:
		return "ERR BADREQ unknown command " + cmd, false
	}
}

func (s *Server) carrierID(field string) (lte.CarrierID, error) {
	n, err := strconv.Atoi(field)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad carrier id %q", field)
	}
	return lte.CarrierID(n), nil
}

func (s *Server) paramIndex(name string) (int, paramspec.Param, error) {
	pi := s.schema.IndexOf(name)
	if pi < 0 {
		return 0, paramspec.Param{}, fmt.Errorf("unknown parameter %q", name)
	}
	return pi, s.schema.At(pi), nil
}

func (s *Server) get(carrier, param, neighbor string) (string, bool) {
	id, err := s.carrierID(carrier)
	if err != nil {
		return "ERR BADREQ " + err.Error(), false
	}
	pi, spec, err := s.paramIndex(param)
	if err != nil {
		return "ERR BADREQ " + err.Error(), false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if neighbor == "" {
		if spec.Kind != paramspec.Singular {
			return "ERR BADREQ parameter is pair-wise; use GETREL", false
		}
		if int(id) >= s.store.NumCarriers() {
			return "ERR BADREQ carrier out of range", false
		}
		return "OK " + spec.Format(s.store.Get(id, pi)), false
	}
	nb, err := s.carrierID(neighbor)
	if err != nil {
		return "ERR BADREQ " + err.Error(), false
	}
	if spec.Kind != paramspec.PairWise {
		return "ERR BADREQ parameter is singular; use GET", false
	}
	v, ok := s.store.GetPair(id, nb, pi)
	if !ok {
		return "ERR BADREQ relation not configured", false
	}
	return "OK " + spec.Format(v), false
}

// bulkSet parses "<param>=<value>;..." assignments, validates all of
// them, then executes the batch atomically under one execution slot.
func (s *Server) bulkSet(carrier, list string) (string, bool) {
	id, err := s.carrierID(carrier)
	if err != nil {
		return "ERR BADREQ " + err.Error(), false
	}
	type assign struct {
		pi int
		v  float64
	}
	var assigns []assign
	for _, item := range strings.Split(list, ";") {
		if item == "" {
			continue
		}
		name, value, ok := strings.Cut(item, "=")
		if !ok {
			return "ERR BADREQ malformed assignment " + item, false
		}
		pi, spec, err := s.paramIndex(name)
		if err != nil {
			return "ERR BADREQ " + err.Error(), false
		}
		if spec.Kind != paramspec.Singular {
			return "ERR BADREQ parameter " + name + " is pair-wise; use SETREL", false
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return "ERR BADREQ bad value " + value, false
		}
		if v < spec.Min || v > spec.Max {
			return fmt.Sprintf("ERR RANGE %s must be in [%v,%v]", name, spec.Min, spec.Max), false
		}
		assigns = append(assigns, assign{pi, v})
	}
	if len(assigns) == 0 {
		return "OK 0", false
	}

	// One queue wait and one latency charge for the whole batch.
	select {
	case s.setSlot <- struct{}{}:
		defer func() { <-s.setSlot }()
	case <-time.After(s.cfg.QueueTimeout):
		return "ERR TIMEOUT execution queue full", false
	}
	if s.cfg.SetLatency > 0 {
		time.Sleep(s.cfg.SetLatency)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.EnforceLock && !s.locked[id] {
		return "ERR UNLOCKED carrier must be locked to change these parameters", false
	}
	if int(id) >= s.store.NumCarriers() {
		return "ERR BADREQ carrier out of range", false
	}
	for _, a := range assigns {
		s.store.Set(id, a.pi, a.v)
	}
	s.setCount += len(assigns)
	return fmt.Sprintf("OK %d", len(assigns)), false
}

func (s *Server) set(carrier, param, value, neighbor string) (string, bool) {
	id, err := s.carrierID(carrier)
	if err != nil {
		return "ERR BADREQ " + err.Error(), false
	}
	pi, spec, err := s.paramIndex(param)
	if err != nil {
		return "ERR BADREQ " + err.Error(), false
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return "ERR BADREQ bad value " + value, false
	}
	if !spec.Valid(spec.Quantize(v)) || v < spec.Min || v > spec.Max {
		return fmt.Sprintf("ERR RANGE %s must be in [%v,%v] step %v", spec.Name, spec.Min, spec.Max, spec.Step), false
	}

	// Acquire an execution slot, honoring the concurrency restriction.
	// The timeout covers the queue wait only: once an execution starts it
	// runs to completion.
	select {
	case s.setSlot <- struct{}{}:
		defer func() { <-s.setSlot }()
	case <-time.After(s.cfg.QueueTimeout):
		return "ERR TIMEOUT execution queue full", false
	}
	if s.cfg.SetLatency > 0 {
		time.Sleep(s.cfg.SetLatency)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.EnforceLock && !s.locked[id] {
		return "ERR UNLOCKED carrier must be locked to change this parameter", false
	}
	if neighbor == "" {
		if spec.Kind != paramspec.Singular {
			return "ERR BADREQ parameter is pair-wise; use SETREL", false
		}
		if int(id) >= s.store.NumCarriers() {
			return "ERR BADREQ carrier out of range", false
		}
		s.store.Set(id, pi, v)
	} else {
		nb, err := s.carrierID(neighbor)
		if err != nil {
			return "ERR BADREQ " + err.Error(), false
		}
		if spec.Kind != paramspec.PairWise {
			return "ERR BADREQ parameter is singular; use SET", false
		}
		if int(id) >= s.store.NumCarriers() {
			return "ERR BADREQ carrier out of range", false
		}
		s.store.SetPair(id, nb, pi, v)
	}
	s.setCount++
	return "OK", false
}
