package sessionio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hyperear/internal/geom"
	"hyperear/internal/imu"
)

// imuHeader is the CSV column layout: one row per sample at the trace's
// fixed rate. The first line is "# fs=<rate>" followed by this header.
const imuHeader = "ax,ay,az,gx,gy,gz,gravx,gravy,gravz"

// comma separates the CSV fields.
var comma = []byte{','}

// WriteIMU saves an IMU trace as CSV with a "# fs=<rate>" preamble —
// trivially producible from an Android sensor log.
func WriteIMU(w io.Writer, tr *imu.Trace) error {
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("sessionio: empty IMU trace")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# fs=%g\n%s\n", tr.Fs, imuHeader)
	for i := 0; i < tr.Len(); i++ {
		a, g, gr := tr.Accel[i], tr.Gyro[i], tr.Gravity[i]
		fmt.Fprintf(bw, "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
			a.X, a.Y, a.Z, g.X, g.Y, g.Z, gr.X, gr.Y, gr.Z)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sessionio: write IMU csv: %w", err)
	}
	return nil
}

// ReadIMU parses the CSV format written by WriteIMU.
func ReadIMU(r io.Reader) (*imu.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("sessionio: empty IMU csv")
	}
	first := strings.TrimSpace(sc.Text())
	if !strings.HasPrefix(first, "# fs=") {
		return nil, fmt.Errorf("sessionio: missing '# fs=' preamble (got %q)", first)
	}
	fs, err := strconv.ParseFloat(strings.TrimPrefix(first, "# fs="), 64)
	// !(fs > 0) rather than fs <= 0: ParseFloat accepts "NaN", and NaN
	// fails every ordered comparison, so it would slip past fs <= 0.
	if err != nil || !(fs > 0) || math.IsInf(fs, 0) {
		return nil, fmt.Errorf("sessionio: bad sample rate in preamble %q", first)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("sessionio: missing IMU header row")
	}
	if got := strings.TrimSpace(sc.Text()); got != imuHeader {
		return nil, fmt.Errorf("sessionio: unexpected header %q", got)
	}
	// Rows are parsed in place from the scanner's buffer: the string
	// conversion of a short field that does not escape allocates nothing,
	// so a row costs no allocation. The three vectors of each row go to
	// one growing slice, split into the trace's series at the end.
	var rows []geom.Vec3
	line := 2
	for sc.Scan() {
		line++
		row := bytes.TrimSpace(sc.Bytes())
		if len(row) == 0 {
			continue
		}
		if n := bytes.Count(row, comma) + 1; n != 9 {
			return nil, fmt.Errorf("sessionio: line %d: %d fields (want 9)", line, n)
		}
		var vals [9]float64
		for i := range vals {
			var f []byte
			f, row, _ = bytes.Cut(row, comma)
			v, err := strconv.ParseFloat(string(bytes.TrimSpace(f)), 64)
			if err != nil {
				return nil, fmt.Errorf("sessionio: line %d field %d: %w", line, i+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("sessionio: line %d field %d: non-finite sample %v", line, i+1, v)
			}
			vals[i] = v
		}
		rows = append(rows,
			geom.Vec3{X: vals[0], Y: vals[1], Z: vals[2]},
			geom.Vec3{X: vals[3], Y: vals[4], Z: vals[5]},
			geom.Vec3{X: vals[6], Y: vals[7], Z: vals[8]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sessionio: read IMU csv: %w", err)
	}
	n := len(rows) / 3
	if n == 0 {
		return nil, fmt.Errorf("sessionio: IMU csv has no samples")
	}
	tr := &imu.Trace{Fs: fs, Accel: make([]geom.Vec3, n), Gyro: make([]geom.Vec3, n), Gravity: make([]geom.Vec3, n)}
	for i := range n {
		tr.Accel[i], tr.Gyro[i], tr.Gravity[i] = rows[3*i], rows[3*i+1], rows[3*i+2]
	}
	return tr, nil
}
