package ems

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"auric/internal/lte"
)

// Client is a connection to an EMS server. It is not safe for concurrent
// use; open one client per worker.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Error is a structured EMS error response.
type Error struct {
	Code    string // BADREQ, RANGE, UNLOCKED, TIMEOUT, INTERNAL
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string { return "ems: " + e.Code + ": " + e.Message }

// IsTimeout reports whether err is an EMS execution timeout (the fall-out
// class of Sec 5).
func IsTimeout(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == "TIMEOUT"
}

// IsUnlocked reports whether err is a rejected write on an unlocked
// carrier.
func IsUnlocked(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == "UNLOCKED"
}

// Dial connects to an EMS server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ems: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close says goodbye and closes the connection.
func (c *Client) Close() error {
	fmt.Fprintln(c.conn, "BYE")
	return c.conn.Close()
}

func (c *Client) roundTrip(req string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, req); err != nil {
		return "", fmt.Errorf("ems: write: %w", err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("ems: read: %w", err)
	}
	line = strings.TrimSpace(line)
	switch {
	case line == "OK":
		return "", nil
	case strings.HasPrefix(line, "OK "):
		return line[3:], nil
	case strings.HasPrefix(line, "ERR "):
		rest := line[4:]
		code, msg, _ := strings.Cut(rest, " ")
		return "", &Error{Code: code, Message: msg}
	default:
		return "", fmt.Errorf("ems: malformed response %q", line)
	}
}

// Get reads a singular parameter value.
func (c *Client) Get(id lte.CarrierID, param string) (float64, error) {
	resp, err := c.roundTrip(fmt.Sprintf("GET %d %s", id, param))
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(resp, 64)
}

// Set writes a singular parameter value.
func (c *Client) Set(id lte.CarrierID, param string, v float64) error {
	_, err := c.roundTrip(fmt.Sprintf("SET %d %s %g", id, param, v))
	return err
}

// Assignment is one parameter assignment of a bulk write.
type Assignment struct {
	Param string
	Value float64
}

// BulkSet writes several singular parameters atomically under a single
// EMS execution slot. It returns how many assignments the server applied
// (all of them, or zero on error).
func (c *Client) BulkSet(id lte.CarrierID, assigns []Assignment) (int, error) {
	if len(assigns) == 0 {
		return 0, nil
	}
	var sb strings.Builder
	for i, a := range assigns {
		if i > 0 {
			sb.WriteByte(';')
		}
		fmt.Fprintf(&sb, "%s=%g", a.Param, a.Value)
	}
	resp, err := c.roundTrip(fmt.Sprintf("BULKSET %d %s", id, sb.String()))
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(resp)
}

// GetRel reads a pair-wise parameter value on the carrier→neighbor
// relation.
func (c *Client) GetRel(id, neighbor lte.CarrierID, param string) (float64, error) {
	resp, err := c.roundTrip(fmt.Sprintf("GETREL %d %d %s", id, neighbor, param))
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(resp, 64)
}

// SetRel writes a pair-wise parameter value on the carrier→neighbor
// relation.
func (c *Client) SetRel(id, neighbor lte.CarrierID, param string, v float64) error {
	_, err := c.roundTrip(fmt.Sprintf("SETREL %d %d %s %g", id, neighbor, param, v))
	return err
}

// Unlock puts the carrier on-air.
func (c *Client) Unlock(id lte.CarrierID) error {
	_, err := c.roundTrip(fmt.Sprintf("UNLOCK %d", id))
	return err
}

// State reports whether the carrier is locked.
func (c *Client) State(id lte.CarrierID) (locked bool, err error) {
	resp, err := c.roundTrip(fmt.Sprintf("STATE %d", id))
	if err != nil {
		return false, err
	}
	return resp == "locked", nil
}
